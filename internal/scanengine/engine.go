package scanengine

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/simclock"
	"rdnsprivacy/internal/telemetry"
)

// Scanner is the sharded snapshot engine. Create one with New; it is safe
// to reuse across sweeps (successive sweeps diff against each other) but
// runs one sweep at a time — concurrent Scan calls serialize.
type Scanner struct {
	src     Source
	shardSc ShardSource // non-nil when src enumerates shards in bulk

	workers     int
	shardBits   int
	negTTL      time.Duration
	clock       simclock.Clock
	probeEvents bool
	rate        *rateGate
	resil       *ResilienceConfig
	met         *engineMetrics
	tracer      *telemetry.Tracer

	cache *negCache

	scanMu sync.Mutex // serializes sweeps
	prev   RecordSet  // records of the last complete sweep

	mu   sync.Mutex // guards subs
	subs []*subscriber
}

// bufferSize is the capacity of the bounded channel between the lookup and
// merge stages, and of each event subscription channel. Lookups stall when
// the merge stage falls this far behind: backpressure, not unbounded
// queueing.
const bufferSize = 1024

// Option tunes a Scanner.
type Option func(*Scanner)

// WithWorkers bounds the resolver worker pool. Default: GOMAXPROCS.
func WithWorkers(n int) Option {
	return func(s *Scanner) {
		if n > 0 {
			s.workers = n
		}
	}
}

// WithShardBits sets the shard granularity for per-address probing:
// targets coarser than /bits are split into /bits shards. Default 16
// (per-/16 shards). Clamped to [8, 24].
func WithShardBits(bits int) Option {
	return func(s *Scanner) {
		if bits < 8 {
			bits = 8
		}
		if bits > 24 {
			bits = 24
		}
		s.shardBits = bits
	}
}

// WithNegativeTTL enables the negative-response cache: authoritative
// absences are remembered for ttl and not re-probed until it lapses.
// Zero (the default) disables the cache.
func WithNegativeTTL(ttl time.Duration) Option {
	return func(s *Scanner) { s.negTTL = ttl }
}

// WithClock sets the clock used for snapshot timestamps and negative-cache
// expiry. Default: the real clock.
func WithClock(c simclock.Clock) Option {
	return func(s *Scanner) {
		if c != nil {
			s.clock = c
		}
	}
}

// WithResultEvents streams every probe result (including absences and
// errors) to event subscribers, not just record deltas and shard
// progress. Full-sweep consumers that print per-address output want this;
// it is off by default because a /16 sweep emits 65k events.
func WithResultEvents() Option {
	return func(s *Scanner) { s.probeEvents = true }
}

// WithRate caps aggregate probe transmission across all workers, in
// queries per second (token-slot, wall-clock). Zero means unlimited. The
// paper rate-limits its supplemental scans "to reduce the impact of our
// measurement on the DNS name servers" (Section 6.1).
func WithRate(qps int) Option {
	return func(s *Scanner) {
		if qps > 0 {
			s.rate = &rateGate{interval: time.Second / time.Duration(qps)}
		}
	}
}

// New creates a Scanner over src. If src also implements ShardSource the
// engine enumerates shards in bulk instead of probing every address.
func New(src Source, opts ...Option) *Scanner {
	s := &Scanner{
		src:       src,
		workers:   runtime.GOMAXPROCS(0),
		shardBits: 16,
		clock:     simclock.Real{},
	}
	if ss, ok := src.(ShardSource); ok {
		s.shardSc = ss
	}
	for _, o := range opts {
		o(s)
	}
	if s.negTTL > 0 {
		s.cache = newNegCache(s.clock, s.negTTL)
	}
	return s
}

// Request describes one sweep.
type Request struct {
	// Targets is the address space to sweep.
	Targets []dnswire.Prefix
	// At is the instant the snapshot models (meaningful for bulk
	// snapshot sources). Zero means the scanner clock's now.
	At time.Time
	// Baseline overrides the diff base for this sweep. Nil means the
	// previous complete sweep's records.
	Baseline RecordSet
}

// Stats tallies a sweep.
type Stats struct {
	// Probes is the number of addresses resolved (enumeration sources
	// count emitted records).
	Probes uint64
	// Found is the number of present records.
	Found uint64
	// Absent is the number of authoritative absences.
	Absent uint64
	// Errors is the number of resolution errors.
	Errors uint64
	// CacheHits is the number of probes served from the negative cache.
	CacheHits uint64
	// Retries is the number of scan-level retry lookups (resilience
	// layer only).
	Retries uint64
	// Hedges is the number of hedged lookups launched (resilience layer
	// only).
	Hedges uint64
	// Skipped is the number of addresses abandoned unprobed by graceful
	// degradation.
	Skipped uint64
}

// ShardStatus is the progress of one shard.
type ShardStatus struct {
	Shard  dnswire.Prefix
	Probes int
	Found  int
	Errors int
	// Skipped counts addresses abandoned unprobed when the shard
	// degraded (resilience layer only).
	Skipped int
	Done    bool
}

// Snapshot is the product of one sweep.
type Snapshot struct {
	// At is the instant the snapshot models.
	At time.Time
	// Elapsed is the sweep duration on the scanner's clock.
	Elapsed time.Duration
	// Records is the merged record set.
	Records RecordSet
	// Stats tallies the sweep.
	Stats Stats
	// Shards is per-shard progress, in plan order.
	Shards []ShardStatus
	// Changes are the deltas against the baseline (the previous complete
	// sweep unless Request.Baseline overrode it), sorted by address. Nil
	// when there was no baseline or the sweep was cancelled before
	// completing (a partial sweep cannot distinguish "removed" from
	// "not yet probed").
	Changes []Change
	// Partial reports the sweep was cancelled before covering every
	// shard.
	Partial bool
	// Health is the resilience layer's structured account of the sweep
	// (nil unless WithResilience is configured).
	Health *HealthReport
	// Degraded reports at least one shard exhausted its circuit-breaker
	// budget and was partially skipped; records under Health.Degraded
	// prefixes are incomplete, and removal inference excludes them.
	Degraded bool
}

// EventKind classifies a stream event.
type EventKind int

// Event kinds.
const (
	// EventSweepStart opens a sweep.
	EventSweepStart EventKind = iota
	// EventResult is one probe result (only with WithResultEvents).
	EventResult
	// EventChange is one incremental delta against the baseline.
	EventChange
	// EventShardDone reports a completed shard with progress.
	EventShardDone
	// EventSweepDone closes a sweep and carries the snapshot.
	EventSweepDone
)

// Event is one entry in the Events stream.
type Event struct {
	Kind  EventKind
	At    time.Time
	Shard dnswire.Prefix // EventShardDone
	// Result is set for EventResult.
	Result Result
	// Change is set for EventChange.
	Change Change
	// ShardsDone/ShardsTotal report sweep progress (EventShardDone,
	// EventSweepDone).
	ShardsDone, ShardsTotal int
	// Snapshot is set for EventSweepDone.
	Snapshot *Snapshot
}

type subscriber struct {
	ch  chan Event
	ctx context.Context
}

// Events subscribes to the scanner's event stream: sweep lifecycle, shard
// progress, incremental record deltas, and (with WithResultEvents) every
// probe result. The channel is buffered to the scanner's buffer size; a
// subscriber that stops draining stalls sweeps (backpressure) until its
// ctx is cancelled, at which point it is dropped and its channel closed
// at the next emission.
func (s *Scanner) Events(ctx context.Context) <-chan Event {
	sub := &subscriber{ch: make(chan Event, bufferSize), ctx: ctx}
	s.mu.Lock()
	s.subs = append(s.subs, sub)
	s.mu.Unlock()
	return sub.ch
}

func (s *Scanner) emit(ev Event) {
	s.mu.Lock()
	subs := make([]*subscriber, len(s.subs))
	copy(subs, s.subs)
	s.mu.Unlock()
	for _, sub := range subs {
		select {
		case sub.ch <- ev:
		case <-sub.ctx.Done():
			s.dropSub(sub)
		}
	}
}

func (s *Scanner) dropSub(sub *subscriber) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, x := range s.subs {
		if x == sub {
			s.subs = append(s.subs[:i], s.subs[i+1:]...)
			close(sub.ch)
			return
		}
	}
}

// mergeMsg travels the bounded channel between the lookup and merge
// stages.
type mergeMsg struct {
	shard   int
	res     Result
	done    bool // shard finished; tally below is authoritative
	tally   ShardStatus
	scanErr error        // bulk enumeration failure
	health  *ShardHealth // resilience ledger, when the layer is on
}

// Scan executes one sweep and returns its snapshot. On context
// cancellation it returns the partial snapshot alongside ctx.Err(); all
// workers are reaped before it returns — a cancelled sweep leaks no
// goroutines.
func (s *Scanner) Scan(ctx context.Context, req Request) (*Snapshot, error) {
	s.scanMu.Lock()
	defer s.scanMu.Unlock()

	shards := planShards(req.Targets, s.shardBits, s.shardSc == nil)
	at := req.At
	if at.IsZero() {
		at = s.clock.Now()
	}
	started := s.clock.Now()

	snap := &Snapshot{
		At:      at,
		Records: make(RecordSet),
		Shards:  make([]ShardStatus, len(shards)),
	}
	for i, sh := range shards {
		snap.Shards[i].Shard = sh
	}
	baseline := req.Baseline
	if baseline == nil {
		baseline = s.prev
	}

	if m := s.met; m != nil {
		m.sweeps.Inc()
	}
	s.emit(Event{Kind: EventSweepStart, At: at, ShardsTotal: len(shards)})

	// Lookup stage: a bounded pool of workers draining the shard queue.
	shardCh := make(chan int, len(shards))
	for i := range shards {
		shardCh <- i
	}
	close(shardCh)
	out := make(chan mergeMsg, bufferSize)
	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for si := range shardCh {
				s.runShard(ctx, si, shards[si], at, out)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()

	// Merge stage: single consumer; always drains until the workers
	// close the channel, so cancellation cannot leak goroutines.
	var changes []Change
	var healths []ShardHealth
	var totals ResilienceTotals
	var degraded []dnswire.Prefix
	if s.resil != nil {
		healths = make([]ShardHealth, len(shards))
		for i, sh := range shards {
			healths[i].Shard = sh
		}
	}
	shardsDone := 0
	for msg := range out {
		if msg.done {
			st := &snap.Shards[msg.shard]
			st.Probes = msg.tally.Probes
			st.Found = msg.tally.Found
			st.Errors = msg.tally.Errors
			st.Skipped = msg.tally.Skipped
			st.Done = msg.scanErr == nil
			snap.Stats.Probes += uint64(msg.tally.Probes)
			snap.Stats.Found += uint64(msg.tally.Found)
			snap.Stats.Errors += uint64(msg.tally.Errors)
			snap.Stats.Absent += uint64(msg.tally.Probes - msg.tally.Found - msg.tally.Errors)
			snap.Stats.Skipped += uint64(msg.tally.Skipped)
			if msg.health != nil && healths != nil {
				// One accumulation here feeds Stats, HealthReport.Totals
				// and the degraded list; the exported telemetry counters
				// tick at the event sites themselves, so the report and
				// /metrics agree by construction, not by parallel
				// bookkeeping.
				h := *msg.health
				h.Probes = msg.tally.Probes
				h.Found = msg.tally.Found
				h.Errors = msg.tally.Errors
				h.Skipped = msg.tally.Skipped
				healths[msg.shard] = h
				totals.Attempts += h.Attempts
				totals.Retries += h.Retries
				totals.Throttled += h.Throttled
				totals.Hedges += h.Hedges
				totals.HedgeWins += h.HedgeWins
				totals.Skipped += h.Skipped
				for _, ev := range h.Breaker {
					if ev.State == BreakerOpen {
						totals.BreakerOpens++
					}
				}
				if h.Degraded {
					degraded = append(degraded, h.Shard)
				}
			}
			shardsDone++
			s.emit(Event{
				Kind: EventShardDone, At: s.clock.Now(), Shard: shards[msg.shard],
				ShardsDone: shardsDone, ShardsTotal: len(shards),
			})
			continue
		}
		res := msg.res
		if res.Cached {
			snap.Stats.CacheHits++
		}
		if s.probeEvents {
			s.emit(Event{Kind: EventResult, At: s.clock.Now(), Result: res})
		}
		if !res.Found {
			continue
		}
		snap.Records[res.IP] = res.Name
		if baseline != nil {
			if old, ok := baseline[res.IP]; !ok {
				ch := Change{Kind: RecordAdded, IP: res.IP, New: res.Name}
				changes = append(changes, ch)
				s.emit(Event{Kind: EventChange, At: s.clock.Now(), Change: ch})
			} else if old != res.Name {
				ch := Change{Kind: RecordChanged, IP: res.IP, Old: old, New: res.Name}
				changes = append(changes, ch)
				s.emit(Event{Kind: EventChange, At: s.clock.Now(), Change: ch})
			}
		}
	}

	snap.Partial = ctx.Err() != nil
	var degradedIdx *shardIndex
	if healths != nil {
		// Stats and the report share the totals accumulated in the merge
		// loop — there is no second tally to drift from.
		snap.Stats.Retries = uint64(totals.Retries)
		snap.Stats.Hedges = uint64(totals.Hedges)
		snap.Health = &HealthReport{Shards: healths, Degraded: degraded, Totals: totals}
		snap.Degraded = len(degraded) > 0
		if snap.Degraded {
			if m := s.met; m != nil {
				m.shardsDegraded.Add(uint64(len(degraded)))
			}
			degradedIdx = newShardIndex(degraded)
		}
	}
	if !snap.Partial && baseline != nil {
		// Complete coverage: every baseline record under the targets
		// that was not re-observed has been removed. Degraded shards were
		// not fully probed, so absence there proves nothing and is
		// excluded.
		index := newShardIndex(shards)
		excluded := 0
		for ip, old := range baseline {
			if _, ok := snap.Records[ip]; ok || !index.contains(ip) {
				continue
			}
			if degradedIdx != nil && degradedIdx.contains(ip) {
				excluded++
				continue
			}
			ch := Change{Kind: RecordRemoved, IP: ip, Old: old}
			changes = append(changes, ch)
			s.emit(Event{Kind: EventChange, At: s.clock.Now(), Change: ch})
		}
		if excluded > 0 {
			// degradedIdx is only built when snap.Health exists.
			snap.Health.RemovalsExcluded = excluded
			if m := s.met; m != nil {
				m.removalsExcluded.Add(uint64(excluded))
			}
		}
	}
	if baseline != nil && !snap.Partial {
		sortChanges(changes)
		snap.Changes = changes
	}
	if !snap.Partial {
		s.prev = snap.Records
	}
	snap.Elapsed = s.clock.Now().Sub(started)
	if m := s.met; m != nil {
		m.sweepSeconds.Observe(snap.Elapsed.Seconds())
	}

	s.emit(Event{
		Kind: EventSweepDone, At: s.clock.Now(), Snapshot: snap,
		ShardsDone: shardsDone, ShardsTotal: len(shards),
	})
	if err := ctx.Err(); err != nil {
		return snap, fmt.Errorf("scanengine: sweep cancelled after %d/%d shards: %w",
			shardsDone, len(shards), err)
	}
	return snap, nil
}

// Previous returns the record set of the last complete sweep (nil before
// the first), the baseline for the next sweep's incremental diff.
func (s *Scanner) Previous() RecordSet {
	s.scanMu.Lock()
	defer s.scanMu.Unlock()
	return s.prev
}

// runShard resolves one shard and reports results plus a closing tally.
func (s *Scanner) runShard(ctx context.Context, si int, shard dnswire.Prefix, at time.Time, out chan<- mergeMsg) {
	var tally ShardStatus
	resil := s.newShardResil(shard)
	met := s.met
	var sp *telemetry.Span
	if s.tracer != nil {
		// The span ID derives from the tracer seed and the shard address,
		// never from scheduling, so replayed sweeps trace identically.
		sp = s.tracer.StartSpan("shard", shard.String(), uint64(shard.Addr.Uint32()), uint64(shard.Bits))
		defer sp.End()
	}
	if resil != nil {
		resil.met = met
		resil.span = sp
	}
	if met != nil {
		met.shardsInflight.Add(1)
		defer met.shardsInflight.Add(-1)
	}
	send := func(msg mergeMsg) bool {
		if met != nil {
			// Backpressure visibility: note sends that would block on the
			// merge stage before waiting on it. Off the instrumented path
			// this extra select does not exist.
			select {
			case out <- msg:
				return true
			default:
				met.mergeStalls.Inc()
			}
		}
		select {
		case out <- msg:
			return true
		case <-ctx.Done():
			return false
		}
	}
	defer func() {
		// The closing tally must not be lost even under cancellation:
		// the merger drains until workers exit.
		msg := mergeMsg{shard: si, done: true, tally: tally, scanErr: ctx.Err()}
		if resil != nil {
			msg.health = &resil.health
		}
		out <- msg
	}()

	if s.shardSc != nil {
		err := s.shardSc.ScanShard(ctx, shard, at, func(res Result) {
			tally.Probes++
			code := TraceProbeAbsent
			if res.Found {
				tally.Found++
				code = TraceProbeFound
			} else if res.Err != nil {
				tally.Errors++
				code = TraceProbeError
			}
			if met != nil {
				met.probes.Inc()
				countOutcome(met, code)
			}
			sp.Event("probe", code)
			if res.Corr != 0 {
				sp.Event("corr", res.Corr)
			}
			if res.Found || res.Err != nil || s.probeEvents {
				send(mergeMsg{shard: si, res: res})
			}
		})
		if err != nil && ctx.Err() == nil {
			tally.Errors++
			if met != nil {
				met.errs.Inc()
			}
		}
		return
	}

	n := shard.NumAddresses()
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			return
		}
		ip := shard.Nth(i)
		var res Result
		if s.cache.hit(ip) {
			res = Result{IP: ip, Cached: true}
			if met != nil {
				met.cacheHits.Inc()
			}
		} else {
			if met != nil && s.cache != nil {
				met.cacheMisses.Inc()
			}
			if err := s.rate.wait(ctx); err != nil {
				return
			}
			var t0 time.Time
			if met != nil {
				t0 = s.clock.Now()
			}
			if resil != nil {
				res = resil.lookup(ctx, s, ip, i)
			} else {
				res = s.src.LookupPTR(ctx, ip)
				res.IP = ip
			}
			if met != nil {
				met.queries.Inc()
				met.probeSeconds.Observe(s.clock.Now().Sub(t0).Seconds())
			}
			if res.Absent() {
				s.cache.put(ip)
			}
		}
		tally.Probes++
		code := TraceProbeAbsent
		switch {
		case res.Found:
			tally.Found++
			code = TraceProbeFound
		case res.Err != nil:
			tally.Errors++
			code = TraceProbeError
		case res.Cached:
			code = TraceProbeCached
		}
		if met != nil {
			met.probes.Inc()
			countOutcome(met, code)
		}
		sp.Event("probe", code)
		if res.Corr != 0 {
			sp.Event("corr", res.Corr)
		}
		if res.Found || res.Err != nil || res.Cached || s.probeEvents {
			if !send(mergeMsg{shard: si, res: res}) {
				return
			}
		}
		if resil != nil && resil.degraded {
			// Graceful degradation: the breaker budget for this shard is
			// exhausted; abandon its remaining addresses and account for
			// them instead of grinding through more open/probe cycles.
			tally.Skipped = n - i - 1
			if met != nil {
				met.skipped.Add(uint64(tally.Skipped))
			}
			return
		}
	}
}

// countOutcome buckets one probe outcome into the found/error/absent
// counters; cached hits are authoritative absences, so they count absent,
// keeping scan_absent_total equal to Stats.Absent.
func countOutcome(met *engineMetrics, code uint64) {
	switch code {
	case TraceProbeFound:
		met.found.Inc()
	case TraceProbeError:
		met.errs.Inc()
	default:
		met.absent.Inc()
	}
}

// planShards partitions targets into work units. With split set (per-IP
// probing) targets coarser than /bits are cut into per-/bits shards;
// bulk-enumeration sources receive targets whole, since enumeration cost
// is per target, not per address.
func planShards(targets []dnswire.Prefix, bits int, split bool) []dnswire.Prefix {
	var out []dnswire.Prefix
	for _, t := range targets {
		if !split || t.Bits >= bits {
			out = append(out, t)
			continue
		}
		n := 1 << (bits - t.Bits)
		base := t.Addr.Uint32()
		step := uint32(1) << (32 - bits)
		for i := 0; i < n; i++ {
			out = append(out, dnswire.Prefix{
				Addr: dnswire.IPv4FromUint32(base + uint32(i)*step),
				Bits: bits,
			})
		}
	}
	return out
}

// shardIndex answers "is this address inside the sweep's coverage" in
// O(log n), for removal inference over large baselines.
type shardIndex struct {
	shards []dnswire.Prefix // sorted by base address
}

func newShardIndex(shards []dnswire.Prefix) *shardIndex {
	sorted := make([]dnswire.Prefix, len(shards))
	copy(sorted, shards)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Addr.Uint32() < sorted[j].Addr.Uint32()
	})
	return &shardIndex{shards: sorted}
}

func (x *shardIndex) contains(ip dnswire.IPv4) bool {
	v := ip.Uint32()
	i := sort.Search(len(x.shards), func(i int) bool {
		return x.shards[i].Addr.Uint32() > v
	})
	return i > 0 && x.shards[i-1].Contains(ip)
}

// rateGate is a token-slot limiter shared by all workers (wall-clock).
type rateGate struct {
	mu       sync.Mutex
	interval time.Duration
	next     time.Time
}

func (g *rateGate) wait(ctx context.Context) error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	now := time.Now()
	if g.next.Before(now) {
		g.next = now
	}
	wait := g.next.Sub(now)
	g.next = g.next.Add(g.interval)
	g.mu.Unlock()
	if wait <= 0 {
		return nil
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
