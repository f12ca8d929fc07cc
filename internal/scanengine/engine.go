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
	src      Source
	shardSc  ShardSource  // non-nil when src enumerates shards in bulk
	windowSc WindowSource // non-nil when src resolves a run of addresses together

	workers   int
	shardBits int
	negTTL    time.Duration
	clock     simclock.Clock
	onResult  func(Result)
	rate      *rateGate
	resil     *ResilienceConfig
	met       *engineMetrics
	tracer    *telemetry.Tracer

	cache *negCache

	scanMu sync.Mutex // serializes sweeps
	prev   RecordSet  // records of the last complete sweep
}

// bufferSize is the capacity of the bounded channel between the lookup and
// merge stages. Lookups stall when the merge stage falls this far behind:
// backpressure, not unbounded queueing.
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

// WithResultFunc streams every probe result — absences, errors and
// negative-cache hits included — to fn as the sweep runs, for consumers
// that print per-address output. Scan calls fn from its own goroutine,
// once per probed address, in the order results reach the merge stage; a
// slow fn stalls the sweep (backpressure), and Scan does not return before
// the last call has; fn must not call back into the Scanner, which holds
// its sweep lock meanwhile. Without it only found records cross the merge
// channel: a /16 sweep is 65k results.
func WithResultFunc(fn func(Result)) Option {
	return func(s *Scanner) { s.onResult = fn }
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
	if ws, ok := src.(WindowSource); ok && s.resil == nil && s.rate == nil {
		s.windowSc = ws
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

// ShardRow is the ledger of one shard: everything the sweep knows about
// what it probed there, retried, skipped and gave up on. It is the one
// account the engine keeps — the worker running the shard fills it, and
// Stats, HealthReport.Totals, the scan_* metrics and the shard span are
// all derived from it — so Snapshot.Shards[i] and, under WithResilience,
// HealthReport.Shards[i] are this same row.
type ShardRow struct {
	// Shard is the address range.
	Shard dnswire.Prefix
	// Probes counts addresses resolved (enumeration sources count emitted
	// records), split into Found, Absent (authoritative absences,
	// negative-cache hits included) and Errors. A failed bulk enumeration
	// adds one error without a probe.
	Probes, Found, Absent, Errors int
	// CacheHits counts probes the negative cache answered, CacheMisses
	// those it was asked about and passed on (both zero without
	// WithNegativeTTL), Queries the probes that reached the source.
	CacheHits, CacheMisses, Queries int
	// Skipped counts addresses abandoned unprobed when the shard degraded.
	Skipped int
	// Attempts counts source lookups including retries and half-open
	// probes; Retries counts scan-level retries; Throttled counts probes
	// paced by adaptive rate control (resilience layer only, like the
	// fields below).
	Attempts, Retries, Throttled int
	// Hedges counts hedge lookups launched, HedgeWins those that beat the
	// primary. Both depend on real timing and are excluded from
	// HealthReport.Fingerprint.
	Hedges, HedgeWins int
	// Breaker is the circuit breaker's transition history, in probe order.
	Breaker []BreakerEvent
	// Degraded reports the breaker exhausted MaxOpens and the shard's
	// remaining addresses were skipped.
	Degraded bool
	// Done reports the shard ran to its end — all of it probed or, once
	// degraded, accounted for as Skipped — rather than being cut short by
	// cancellation.
	Done bool
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

// Add sums another tally into s: a sweep's Stats is its rows' added up,
// and a campaign day's is its vantages'.
func (s *Stats) Add(o Stats) {
	s.Probes += o.Probes
	s.Found += o.Found
	s.Absent += o.Absent
	s.Errors += o.Errors
	s.CacheHits += o.CacheHits
	s.Retries += o.Retries
	s.Hedges += o.Hedges
	s.Skipped += o.Skipped
}

// Snapshot is the product of one sweep.
type Snapshot struct {
	// At is the instant the snapshot models.
	At time.Time
	// Elapsed is the sweep duration on the scanner's clock.
	Elapsed time.Duration
	// Records is the merged record set.
	Records RecordSet
	// Stats tallies the sweep: the sum of Shards.
	Stats Stats
	// Shards is the per-shard ledger, in plan order.
	Shards []ShardRow
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

// add folds one shard's row into the sweep-level views. It is the only
// place Stats, HealthReport.Totals and the degraded list are produced.
func (snap *Snapshot) add(r *ShardRow) {
	snap.Stats.Add(Stats{
		Probes:    uint64(r.Probes),
		Found:     uint64(r.Found),
		Absent:    uint64(r.Absent),
		Errors:    uint64(r.Errors),
		CacheHits: uint64(r.CacheHits),
		Retries:   uint64(r.Retries),
		Hedges:    uint64(r.Hedges),
		Skipped:   uint64(r.Skipped),
	})
	h := snap.Health
	if h == nil {
		return
	}
	h.Totals.Attempts += r.Attempts
	h.Totals.Retries += r.Retries
	h.Totals.Throttled += r.Throttled
	h.Totals.Hedges += r.Hedges
	h.Totals.HedgeWins += r.HedgeWins
	h.Totals.Skipped += r.Skipped
	for _, ev := range r.Breaker {
		if ev.State == BreakerOpen {
			h.Totals.BreakerOpens++
		}
	}
	if r.Degraded {
		h.Degraded = append(h.Degraded, r.Shard)
		snap.Degraded = true
	}
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

	baseline := req.Baseline
	if baseline == nil {
		baseline = s.prev
	}
	snap := &Snapshot{
		At: at,
		// Successive sweeps of one target set hold about as many records:
		// size the set for the baseline's rather than growing it to that.
		Records: make(RecordSet, len(baseline)),
		Shards:  make([]ShardRow, len(shards)),
	}
	for i, sh := range shards {
		snap.Shards[i].Shard = sh
	}
	if s.resil != nil {
		snap.Health = &HealthReport{Shards: snap.Shards}
	}
	if m := s.met; m != nil {
		m.sweeps.Inc()
	}

	// Lookup stage: a bounded pool of workers draining the shard queue,
	// each filling the row of the shard it runs.
	shardCh := make(chan int, len(shards))
	for i := range shards {
		shardCh <- i
	}
	close(shardCh)
	out := make(chan Result, bufferSize)
	var wg sync.WaitGroup
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for si := range shardCh {
				s.runShard(ctx, &snap.Shards[si], at, out)
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
	for res := range out {
		if s.onResult != nil {
			s.onResult(res)
		}
		if !res.Found {
			continue
		}
		snap.Records[res.IP] = res.Name
		if baseline != nil {
			if old, ok := baseline[res.IP]; !ok {
				changes = append(changes, Change{Kind: RecordAdded, IP: res.IP, New: res.Name})
			} else if old != res.Name {
				changes = append(changes, Change{Kind: RecordChanged, IP: res.IP, Old: old, New: res.Name})
			}
		}
	}
	// The workers have exited, so every row is final. Folding them in
	// plan order keeps the degraded list independent of scheduling.
	shardsDone := 0
	for i := range snap.Shards {
		snap.add(&snap.Shards[i])
		if snap.Shards[i].Done {
			shardsDone++
		}
	}

	snap.Partial = ctx.Err() != nil
	if !snap.Partial && baseline != nil {
		changes = s.appendRemovals(changes, snap, baseline, shards)
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
	if err := ctx.Err(); err != nil {
		return snap, fmt.Errorf("scanengine: sweep cancelled after %d/%d shards: %w",
			shardsDone, len(shards), err)
	}
	return snap, nil
}

// appendRemovals adds to changes the baseline records a complete sweep
// proved gone: every one under the targets that was not re-observed.
// Degraded shards were not fully probed, so absence there proves nothing;
// those records are counted in Health.RemovalsExcluded instead.
func (s *Scanner) appendRemovals(changes []Change, snap *Snapshot, baseline RecordSet, shards []dnswire.Prefix) []Change {
	index := newShardIndex(shards)
	var degraded *shardIndex
	if snap.Degraded {
		degraded = newShardIndex(snap.Health.Degraded)
	}
	excluded := 0
	for ip, old := range baseline {
		if _, ok := snap.Records[ip]; ok || !index.contains(ip) {
			continue
		}
		if degraded != nil && degraded.contains(ip) {
			excluded++
			continue
		}
		changes = append(changes, Change{Kind: RecordRemoved, IP: ip, Old: old})
	}
	if excluded > 0 {
		snap.Health.RemovalsExcluded = excluded
		if m := s.met; m != nil {
			m.removalsExcluded.Add(uint64(excluded))
		}
	}
	return changes
}

// Previous returns the record set of the last complete sweep (nil before
// the first), the baseline for the next sweep's incremental diff.
func (s *Scanner) Previous() RecordSet {
	s.scanMu.Lock()
	defer s.scanMu.Unlock()
	return s.prev
}

// flushEvery is how many probes a shard books between flushes of its row
// to the registry: the /24 boundary, so /metrics stays live inside a /16
// shard without the hot path touching a shared counter per probe.
const flushEvery = 256

// runShard resolves one shard. The row is all it writes; what the merge
// stage has a use for — found records, and every result when a result
// func is attached — it sends on out.
func (s *Scanner) runShard(ctx context.Context, row *ShardRow, at time.Time, out chan<- Result) {
	var view shardView
	s.observeShard(&view, row, shardOpen)
	defer func() {
		row.Done = ctx.Err() == nil
		s.observeShard(&view, row, shardClose)
	}()
	record := func(res Result) bool {
		row.Probes++
		switch {
		case res.Found:
			row.Found++
		case res.Err != nil:
			row.Errors++
		default:
			row.Absent++
		}
		if row.Probes%flushEvery == 0 {
			s.observeShard(&view, row, shardFlush)
		}
		if !res.Found && s.onResult == nil {
			return true
		}
		return s.send(ctx, out, res)
	}

	if s.shardSc != nil {
		err := s.shardSc.ScanShard(ctx, row.Shard, at, func(res Result) { record(res) })
		if err != nil && ctx.Err() == nil {
			row.Errors++
		}
		return
	}

	// The shard goes by in windows: the addresses of one that miss the
	// cache are resolved — together at a WindowSource, otherwise the window
	// is a single address — and then all of it is booked, in address order.
	resil := s.newShardResil(row)
	width := 1
	if s.windowSc != nil {
		width = Window
	}
	var (
		ips [Window]dnswire.IPv4
		got [Window]Result
	)
	n := row.Shard.NumAddresses()
	for i := 0; i < n; {
		if ctx.Err() != nil {
			return
		}
		end := min(i+width, n)
		misses, cached := 0, uint32(0) // cached: bit k is address i+k
		for k := i; k < end; k++ {
			if ip := row.Shard.Nth(k); s.cache.hit(ip) {
				cached |= 1 << (k - i)
			} else {
				ips[misses] = ip
				misses++
			}
		}
		if s.windowSc != nil {
			s.lookupWindow(ctx, ips[:misses], got[:misses])
		} else if misses > 0 {
			if err := s.rate.wait(ctx); err != nil {
				return
			}
			got[0] = s.lookup(ctx, resil, ips[0], i)
		}
		for next := 0; i < end; i++ {
			var res Result
			if cached&1 != 0 {
				row.CacheHits++
				res = Result{IP: row.Shard.Nth(i), Cached: true}
			} else {
				if s.cache != nil {
					row.CacheMisses++
				}
				res = got[next]
				next++
				row.Queries++
				if res.Absent() {
					s.cache.put(res.IP)
				}
			}
			cached >>= 1
			if !record(res) {
				return
			}
			if row.Degraded {
				// Graceful degradation: the breaker budget for this shard is
				// exhausted; abandon its remaining addresses and account for
				// them instead of grinding through more open/probe cycles.
				row.Skipped = n - i - 1
				return
			}
		}
	}
}

// lookup resolves one address at the source, through the resilience
// layer when it is on, and times it when a sink is attached.
func (s *Scanner) lookup(ctx context.Context, resil *shardResil, ip dnswire.IPv4, probe int) Result {
	if m := s.met; m != nil {
		defer func(t0 time.Time) {
			m.probeSeconds.Observe(s.clock.Now().Sub(t0).Seconds())
		}(s.clock.Now())
	}
	if resil != nil {
		return resil.lookup(ctx, s, ip, probe)
	}
	res := s.src.LookupPTR(ctx, ip)
	res.IP = ip
	return res
}

// lookupWindow resolves ips together at the WindowSource. A probe of a
// window is done when its window is, so with a sink attached each is timed
// as that long.
func (s *Scanner) lookupWindow(ctx context.Context, ips []dnswire.IPv4, out []Result) {
	if len(ips) == 0 {
		return
	}
	if m := s.met; m != nil {
		defer func(t0 time.Time) {
			took := s.clock.Now().Sub(t0).Seconds()
			for range ips {
				m.probeSeconds.Observe(took)
			}
		}(s.clock.Now())
	}
	s.windowSc.LookupPTRs(ctx, ips, out)
	for i, ip := range ips {
		out[i].IP = ip
	}
}

// send hands one result to the merge stage, or gives up when ctx ends
// first.
func (s *Scanner) send(ctx context.Context, out chan<- Result, res Result) bool {
	if m := s.met; m != nil {
		// Backpressure visibility: note sends that would block on the
		// merge stage before waiting on it. Off the instrumented path
		// this extra select does not exist.
		select {
		case out <- res:
			return true
		default:
			m.mergeStalls.Inc()
		}
	}
	select {
	case out <- res:
		return true
	case <-ctx.Done():
		return false
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
