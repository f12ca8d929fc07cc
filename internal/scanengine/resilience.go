package scanengine

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/telemetry"
)

// This file is the scan pipeline's resilience layer: scan-level retries
// with deterministic full-jitter backoff, per-shard circuit breakers,
// optional hedged lookups, adaptive rate control driven by in-band
// throttle signals, and graceful degradation — a sweep over a failing
// range produces a partial snapshot plus a structured HealthReport
// instead of hanging or erroring out.
//
// The layer classifies source errors structurally, through the two
// single-method interfaces below, because the concrete error type lives in
// dnsclient and dnsclient imports this package — a nominal dependency
// would be a cycle. Any error implementing RetryableFault()/ThrottleFault()
// participates; unknown errors default to retryable (transient until
// proven otherwise), and context cancellation is never retried.

// retryableFault is implemented by errors that represent transient
// infrastructure failures worth retrying (dnsclient: timeout, SERVFAIL).
type retryableFault interface{ RetryableFault() bool }

// throttleFault is implemented by errors that represent an in-band
// slow-down signal (dnsclient: REFUSED).
type throttleFault interface{ ThrottleFault() bool }

func isCanceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func isRetryable(err error) bool {
	if err == nil || isCanceled(err) {
		return false
	}
	var rf retryableFault
	if errors.As(err, &rf) {
		return rf.RetryableFault()
	}
	return true
}

func isThrottle(err error) bool {
	var tf throttleFault
	return errors.As(err, &tf) && tf.ThrottleFault()
}

// RetryPolicy governs scan-level retries of retryable faults, layered on
// top of whatever retransmission the source itself performs.
type RetryPolicy struct {
	// MaxAttempts is the total number of source lookups per address
	// (first try included). Values below 1 mean 1 (no retry).
	MaxAttempts int
	// BaseDelay, when positive, spaces retries by exponential backoff
	// with full jitter: retry k waits a deterministic pseudo-random delay
	// in [0, min(MaxDelay, BaseDelay<<k)). Zero retries immediately.
	BaseDelay time.Duration
	// MaxDelay caps the backoff window. Zero means 16x BaseDelay.
	MaxDelay time.Duration
}

// BreakerConfig governs the per-shard circuit breaker.
type BreakerConfig struct {
	// Threshold is how many consecutive final (post-retry) faults open
	// the breaker. Zero disables the breaker.
	Threshold int
	// OpenFor is how long an open breaker waits before probing half-open.
	// Zero means 100ms.
	OpenFor time.Duration
	// MaxOpens is how many times the breaker may open within one shard
	// before the shard degrades (its remaining addresses are skipped and
	// reported, not probed). Zero means 2.
	MaxOpens int
}

// HedgeConfig governs hedged lookups: when the primary lookup has not
// completed within Delay, a second identical lookup races it and the
// first completion wins. Hedging cuts tail latency against servers with
// occasional latency spikes at the cost of duplicate queries; because the
// winner depends on real timing, hedge counters are excluded from
// HealthReport.Fingerprint.
type HedgeConfig struct {
	// Delay is how long the primary runs alone. Zero disables hedging.
	Delay time.Duration
}

// ThrottleConfig governs adaptive per-shard pacing driven by throttle
// faults (REFUSED): each throttle response doubles the inter-probe delay
// (starting at InitialDelay, capped at MaxDelay); each answered probe
// halves it back toward zero.
type ThrottleConfig struct {
	// InitialDelay is the pacing delay after the first throttle signal.
	// Zero disables adaptive pacing.
	InitialDelay time.Duration
	// MaxDelay caps the pacing delay. Zero means 16x InitialDelay.
	MaxDelay time.Duration
}

// ResilienceConfig bundles the resilience knobs enabled by
// WithResilience. The zero value of each sub-policy disables it, so
// callers opt into exactly the mechanisms they want.
type ResilienceConfig struct {
	Retry    RetryPolicy
	Breaker  BreakerConfig
	Hedge    HedgeConfig
	Throttle ThrottleConfig
	// Seed fixes the backoff-jitter hash so retry schedules replay
	// deterministically. The jitter for a given (seed, address, attempt)
	// never changes.
	Seed int64
}

// WithResilience enables the resilience layer for per-address sweeps.
// Bulk-enumeration sources (ShardSource) bypass it — they do not probe
// individual addresses.
func WithResilience(cfg ResilienceConfig) Option {
	if cfg.Retry.MaxAttempts < 1 {
		cfg.Retry.MaxAttempts = 1
	}
	if cfg.Retry.BaseDelay > 0 && cfg.Retry.MaxDelay <= 0 {
		cfg.Retry.MaxDelay = 16 * cfg.Retry.BaseDelay
	}
	if cfg.Breaker.Threshold > 0 {
		if cfg.Breaker.OpenFor <= 0 {
			cfg.Breaker.OpenFor = 100 * time.Millisecond
		}
		if cfg.Breaker.MaxOpens <= 0 {
			cfg.Breaker.MaxOpens = 2
		}
	}
	if cfg.Throttle.InitialDelay > 0 && cfg.Throttle.MaxDelay <= 0 {
		cfg.Throttle.MaxDelay = 16 * cfg.Throttle.InitialDelay
	}
	return func(s *Scanner) { s.resil = &cfg }
}

// BreakerState is a circuit breaker state.
type BreakerState int

// Breaker states.
const (
	// BreakerClosed passes probes through normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen short-circuits probing until the open window lapses.
	BreakerOpen
	// BreakerHalfOpen allows one cautious probe to test recovery.
	BreakerHalfOpen
)

// String returns a mnemonic.
func (b BreakerState) String() string {
	switch b {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state%d", int(b))
	}
}

// BreakerEvent is one breaker transition, located by the probe index
// within the shard (not by wall-clock time, so identical fault sequences
// produce identical event lists regardless of scheduling).
type BreakerEvent struct {
	State   BreakerState
	AtProbe int
}

// ResilienceTotals aggregates the rows' resilience counters across a sweep.
type ResilienceTotals struct {
	Attempts, Retries, Throttled, Hedges, HedgeWins, Skipped, BreakerOpens int
}

// HealthReport is the structured account of a resilient sweep: what
// failed, what was retried, which ranges degraded. A degraded sweep still
// yields a usable snapshot; the report says which parts of it to trust.
type HealthReport struct {
	// Shards is the per-shard ledger, in plan order: Snapshot.Shards.
	Shards []ShardRow
	// Degraded lists the address ranges whose shards degraded. Records
	// under these prefixes are incomplete and removal inference skips
	// them.
	Degraded []dnswire.Prefix
	// Totals aggregates the shard counters.
	Totals ResilienceTotals
	// RemovalsExcluded counts baseline records whose removal inference was
	// suppressed because they sat under a degraded prefix — how much the
	// degradation cost the longitudinal analysis. Mirrors the
	// scan_removals_excluded_total metric; not part of Fingerprint (the
	// fingerprint predates it and covers per-shard ledgers only).
	RemovalsExcluded int
}

// Fingerprint hashes the deterministic portion of the report (everything
// except hedge counters): with a deterministic source and hedging off,
// identical seeds produce identical fingerprints across runs.
func (h *HealthReport) Fingerprint() uint64 {
	f := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		f.Write(buf[:])
	}
	for _, sh := range h.Shards {
		w(uint64(sh.Shard.Addr.Uint32()))
		w(uint64(sh.Shard.Bits))
		w(uint64(sh.Probes))
		w(uint64(sh.Found))
		w(uint64(sh.Errors))
		w(uint64(sh.Skipped))
		w(uint64(sh.Attempts))
		w(uint64(sh.Retries))
		w(uint64(sh.Throttled))
		if sh.Degraded {
			w(1)
		} else {
			w(0)
		}
		w(uint64(len(sh.Breaker)))
		for _, ev := range sh.Breaker {
			w(uint64(ev.State))
			w(uint64(ev.AtProbe))
		}
	}
	return f.Sum64()
}

// shardResil is the per-shard resilience state. It lives entirely inside
// one worker's sequential shard loop, so it needs no locking, and what it
// has to report — attempts, retries, pacing, hedges, breaker history — it
// books in the shard's row.
type shardResil struct {
	cfg  *ResilienceConfig
	row  *ShardRow
	seed uint64

	breaker     BreakerState
	consecutive int // consecutive final faults while closed
	opens       int
	throttle    time.Duration
}

func (s *Scanner) newShardResil(row *ShardRow) *shardResil {
	if s.resil == nil {
		return nil
	}
	shard := row.Shard
	return &shardResil{
		cfg:  s.resil,
		row:  row,
		seed: telemetry.Mix64(uint64(s.resil.Seed), uint64(shard.Addr.Uint32()), uint64(shard.Bits)),
	}
}

// lookup resolves one address through the resilience stack. probe is the
// address's index within the shard, used to locate breaker transitions.
// After a return with the row Degraded, the caller must stop probing the
// shard.
func (st *shardResil) lookup(ctx context.Context, s *Scanner, ip dnswire.IPv4, probe int) Result {
	cfg := st.cfg
	if st.breaker == BreakerOpen {
		if err := s.sleepClock(ctx, cfg.Breaker.OpenFor); err != nil {
			return Result{IP: ip, Err: err}
		}
		st.transition(BreakerHalfOpen, probe)
	}
	if st.throttle > 0 {
		st.row.Throttled++
		if err := s.sleepClock(ctx, st.throttle); err != nil {
			return Result{IP: ip, Err: err}
		}
	}

	res := st.withRetries(ctx, s, ip, probe)

	switch {
	case isCanceled(res.Err):
		// Context end, not a server fault: no breaker or pacing updates.
	case res.Err == nil:
		// The server answered (record, or authoritative absence).
		st.consecutive = 0
		st.decayThrottle()
		if st.breaker != BreakerClosed {
			st.transition(BreakerClosed, probe)
		}
	case isThrottle(res.Err):
		// The server is alive and shedding load: slow down, don't trip
		// the breaker.
		st.consecutive = 0
		st.bumpThrottle()
		if st.breaker == BreakerHalfOpen {
			st.transition(BreakerClosed, probe)
		}
	default:
		// Final infrastructure fault after retries.
		if st.breaker == BreakerHalfOpen {
			st.open(probe)
		} else if cfg.Breaker.Threshold > 0 {
			st.consecutive++
			if st.consecutive >= cfg.Breaker.Threshold {
				st.open(probe)
			}
		}
	}
	return res
}

// withRetries runs up to Retry.MaxAttempts source lookups with backoff. A
// half-open breaker allows a single cautious probe regardless of budget.
func (st *shardResil) withRetries(ctx context.Context, s *Scanner, ip dnswire.IPv4, probe int) Result {
	max := st.cfg.Retry.MaxAttempts
	if st.breaker == BreakerHalfOpen {
		max = 1
	}
	var res Result
	for attempt := 1; ; attempt++ {
		st.row.Attempts++
		res = st.probeOnce(ctx, s, ip)
		if res.Err == nil || attempt >= max || ctx.Err() != nil {
			return res
		}
		// A throttle fault retries after bumping the adaptive pacing
		// delay and sitting it out — the slow-start that lets a sweep
		// find the rate a refusing server will sustain.
		if isThrottle(res.Err) {
			if st.cfg.Throttle.InitialDelay <= 0 {
				return res
			}
			st.bumpThrottle()
			st.row.Retries++
			if err := s.sleepClock(ctx, st.throttle); err != nil {
				return res
			}
			continue
		}
		if !isRetryable(res.Err) {
			return res
		}
		st.row.Retries++
		if d := st.backoff(ip, attempt); d > 0 {
			if err := s.sleepClock(ctx, d); err != nil {
				return res
			}
		}
	}
}

// probeOnce performs one source lookup, hedged when configured: if the
// primary has not completed within Hedge.Delay a second lookup races it
// and the first completion wins. The loser's goroutine drains into a
// buffered channel, so nothing leaks past the source's own timeout.
func (st *shardResil) probeOnce(ctx context.Context, s *Scanner, ip dnswire.IPv4) Result {
	if st.cfg.Hedge.Delay <= 0 {
		res := s.src.LookupPTR(ctx, ip)
		res.IP = ip
		return res
	}
	primary := make(chan Result, 1)
	go func() {
		r := s.src.LookupPTR(ctx, ip)
		r.IP = ip
		primary <- r
	}()
	hedgeAt := make(chan struct{})
	t := s.clock.AfterFunc(st.cfg.Hedge.Delay, func() { close(hedgeAt) })
	defer t.Stop()
	select {
	case r := <-primary:
		return r
	case <-ctx.Done():
		return Result{IP: ip, Err: ctx.Err()}
	case <-hedgeAt:
	}
	st.row.Hedges++
	hedge := make(chan Result, 1)
	go func() {
		r := s.src.LookupPTR(ctx, ip)
		r.IP = ip
		hedge <- r
	}()
	select {
	case r := <-primary:
		return r
	case r := <-hedge:
		st.row.HedgeWins++
		return r
	case <-ctx.Done():
		return Result{IP: ip, Err: ctx.Err()}
	}
}

// open advances the breaker to open, degrading the shard when the open
// budget is exhausted.
func (st *shardResil) open(probe int) {
	st.opens++
	st.consecutive = 0
	st.transition(BreakerOpen, probe)
	if st.opens > st.cfg.Breaker.MaxOpens {
		st.row.Degraded = true
	}
}

func (st *shardResil) transition(to BreakerState, probe int) {
	st.breaker = to
	st.row.Breaker = append(st.row.Breaker, BreakerEvent{State: to, AtProbe: probe})
}

func (st *shardResil) bumpThrottle() {
	cfg := st.cfg.Throttle
	if cfg.InitialDelay <= 0 {
		return
	}
	if st.throttle == 0 {
		st.throttle = cfg.InitialDelay
	} else if st.throttle *= 2; st.throttle > cfg.MaxDelay {
		st.throttle = cfg.MaxDelay
	}
}

func (st *shardResil) decayThrottle() {
	if st.throttle == 0 {
		return
	}
	st.throttle /= 2
	if st.throttle < st.cfg.Throttle.InitialDelay {
		st.throttle = 0
	}
}

// backoff is the deterministic full-jitter delay before retry attempt:
// uniform-by-hash over [0, min(MaxDelay, BaseDelay<<attempt)).
func (st *shardResil) backoff(ip dnswire.IPv4, attempt int) time.Duration {
	p := st.cfg.Retry
	if p.BaseDelay <= 0 {
		return 0
	}
	window := p.BaseDelay << uint(attempt)
	if window <= 0 || window > p.MaxDelay {
		window = p.MaxDelay
	}
	h := telemetry.Mix64(st.seed, uint64(ip.Uint32()), uint64(attempt))
	return time.Duration(float64(window) * telemetry.UnitFloat(h))
}

// sleepClock blocks for d on the scanner's clock or until ctx ends.
func (s *Scanner) sleepClock(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d <= 0 {
		return nil
	}
	done := make(chan struct{})
	t := s.clock.AfterFunc(d, func() { close(done) })
	defer t.Stop()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
