package scanengine

import (
	"rdnsprivacy/internal/telemetry"
)

// Metric names the engine registers when WithTelemetry is configured.
// docs/observability.md documents each one.
const (
	// MetricProbes counts every address probed, including negative-cache
	// hits. Equals Stats.Probes summed across sweeps.
	MetricProbes = "scan_probes_total"
	// MetricQueries counts probes that reached the source (cache hits
	// excluded). Equals Stats.Probes - Stats.CacheHits.
	MetricQueries = "scan_queries_total"
	// MetricFound / MetricAbsent / MetricErrors split probe outcomes.
	MetricFound  = "scan_found_total"
	MetricAbsent = "scan_absent_total"
	MetricErrors = "scan_errors_total"
	// MetricCacheHits / MetricCacheMisses count negative-cache lookups
	// (only when WithNegativeTTL enables the cache).
	MetricCacheHits   = "scan_negcache_hits_total"
	MetricCacheMisses = "scan_negcache_misses_total"
	// MetricAttempts counts source lookups through the resilience layer,
	// retries and half-open probes included. Equals Totals.Attempts.
	MetricAttempts = "scan_attempts_total"
	// MetricRetries counts scan-level retries. Equals Totals.Retries.
	MetricRetries = "scan_retries_total"
	// MetricHedges / MetricHedgeWins count hedge lookups launched and
	// hedges that beat the primary. Timing-dependent: exclude from
	// deterministic comparisons, as HealthReport.Fingerprint does.
	MetricHedges    = "scan_hedges_total"
	MetricHedgeWins = "scan_hedge_wins_total"
	// MetricBreakerOpens / MetricBreakerHalfOpens / MetricBreakerCloses
	// count circuit-breaker state transitions. Opens equals
	// Totals.BreakerOpens.
	MetricBreakerOpens     = "scan_breaker_opens_total"
	MetricBreakerHalfOpens = "scan_breaker_halfopens_total"
	MetricBreakerCloses    = "scan_breaker_closes_total"
	// MetricThrottled counts probes paced by adaptive rate control.
	// Equals Totals.Throttled.
	MetricThrottled = "scan_throttled_total"
	// MetricSkipped counts addresses abandoned unprobed by graceful
	// degradation. Equals Totals.Skipped.
	MetricSkipped = "scan_skipped_total"
	// MetricMergeStalls counts lookup-stage sends that blocked because the
	// merge stage was behind (backpressure engaged). Scheduling-dependent:
	// exclude it from DeterministicDigest comparisons.
	MetricMergeStalls = "scan_merge_stalls_total"
	// MetricRemovalsExcluded counts baseline records whose removal
	// inference was suppressed because they sat under a degraded prefix.
	// Equals HealthReport.RemovalsExcluded.
	MetricRemovalsExcluded = "scan_removals_excluded_total"
	// MetricSweeps counts sweeps started; MetricShardsDegraded counts
	// shards that degraded.
	MetricSweeps         = "scan_sweeps_total"
	MetricShardsDegraded = "scan_shards_degraded_total"
	// MetricShardsInflight gauges shards currently being probed.
	MetricShardsInflight = "scan_shards_inflight"
	// MetricProbeSeconds is the per-probe source latency histogram (cache
	// hits excluded); MetricSweepSeconds the whole-sweep duration. Both
	// measure on the scanner's clock.
	MetricProbeSeconds = "scan_probe_seconds"
	MetricSweepSeconds = "scan_sweep_seconds"
)

// Kinds of the events a shard span closes with: one per outcome class,
// Code the number of the shard's probes that ended that way (TraceAbsent
// leaves out the negative-cache hits TraceCached counts, so the four sum
// to the row's Probes), then a "breaker" event per circuit-breaker
// transition, Code the BreakerState.
const (
	TraceFound   = "found"
	TraceAbsent  = "absent"
	TraceErrors  = "errors"
	TraceCached  = "cached"
	TraceBreaker = "breaker"
)

// engineMetrics holds the engine's pre-resolved instrument handles. The
// struct pointer is nil when telemetry is off, so the probe loop skips its
// clock reads entirely; the counters are written by observeShard alone.
type engineMetrics struct {
	probes, queries, found, absent, errs *telemetry.Counter
	cacheHits, cacheMisses               *telemetry.Counter
	attempts, retries                    *telemetry.Counter
	hedges, hedgeWins                    *telemetry.Counter
	breakerOpens, breakerHalf, breakerCl *telemetry.Counter
	throttled, skipped, mergeStalls      *telemetry.Counter
	removalsExcluded                     *telemetry.Counter
	sweeps, shardsDegraded               *telemetry.Counter
	shardsInflight                       *telemetry.Gauge
	probeSeconds, sweepSeconds           *telemetry.Histogram
}

func newEngineMetrics(sink telemetry.Sink) *engineMetrics {
	return &engineMetrics{
		probes:           sink.Counter(MetricProbes),
		queries:          sink.Counter(MetricQueries),
		found:            sink.Counter(MetricFound),
		absent:           sink.Counter(MetricAbsent),
		errs:             sink.Counter(MetricErrors),
		cacheHits:        sink.Counter(MetricCacheHits),
		cacheMisses:      sink.Counter(MetricCacheMisses),
		attempts:         sink.Counter(MetricAttempts),
		retries:          sink.Counter(MetricRetries),
		hedges:           sink.Counter(MetricHedges),
		hedgeWins:        sink.Counter(MetricHedgeWins),
		breakerOpens:     sink.Counter(MetricBreakerOpens),
		breakerHalf:      sink.Counter(MetricBreakerHalfOpens),
		breakerCl:        sink.Counter(MetricBreakerCloses),
		throttled:        sink.Counter(MetricThrottled),
		skipped:          sink.Counter(MetricSkipped),
		mergeStalls:      sink.Counter(MetricMergeStalls),
		removalsExcluded: sink.Counter(MetricRemovalsExcluded),
		sweeps:           sink.Counter(MetricSweeps),
		shardsDegraded:   sink.Counter(MetricShardsDegraded),
		shardsInflight:   sink.Gauge(MetricShardsInflight),
		probeSeconds:     sink.Histogram(MetricProbeSeconds, telemetry.DefaultLatencyBuckets()),
		sweepSeconds:     sink.Histogram(MetricSweepSeconds, telemetry.DefaultLatencyBuckets()),
	}
}

// WithTelemetry registers the engine's instruments in sink and counts
// queries, outcomes, cache traffic, resilience events, and probe/sweep
// latency as sweeps run. The counters are each shard row's fields, flushed
// every 256 probes and at shard close, so exported metrics cannot drift
// from Snapshot.Stats and HealthReport.Totals, which are sums of the same
// rows. Without this option the engine records nothing.
func WithTelemetry(sink telemetry.Sink) Option {
	return func(s *Scanner) {
		if sink != nil {
			s.met = newEngineMetrics(sink)
		}
	}
}

// WithTracer records one span per shard (name "shard", attr the prefix,
// ID derived from the tracer seed and the shard address) that closes with
// the shard's outcome counts (TraceFound, TraceAbsent, TraceErrors,
// TraceCached) and a TraceBreaker event per circuit-breaker transition: a
// fixed handful of events however large the shard. Span digests are
// time-independent, so two runs of the same seeded scenario trace
// identically — see telemetry.Tracer.Digest.
func WithTracer(tr *telemetry.Tracer) Option {
	return func(s *Scanner) { s.tracer = tr }
}

// shardView is what observeShard keeps for one shard between calls: the
// span it opened and the row as of its last flush to the registry.
type shardView struct {
	span    *telemetry.Span
	flushed ShardRow
}

// shardPhase tells observeShard where in the shard's life it is called.
type shardPhase int

const (
	shardOpen shardPhase = iota
	shardFlush
	shardClose
)

// observeShard derives the engine's metrics and the shard span from a
// row; nothing else writes either. It adds to each counter what the row
// gained since the last flush, so the registry trails the row by at most
// flushEvery probes while the shard runs and equals it once closed, and
// it closes the span with a summary of the row — its size does not grow
// with the shard.
func (s *Scanner) observeShard(v *shardView, row *ShardRow, phase shardPhase) {
	if m := s.met; m != nil {
		last := &v.flushed
		add := func(c *telemetry.Counter, now, was int) { c.Add(uint64(now - was)) }
		add(m.probes, row.Probes, last.Probes)
		add(m.queries, row.Queries, last.Queries)
		add(m.found, row.Found, last.Found)
		add(m.absent, row.Absent, last.Absent)
		add(m.errs, row.Errors, last.Errors)
		add(m.cacheHits, row.CacheHits, last.CacheHits)
		add(m.cacheMisses, row.CacheMisses, last.CacheMisses)
		add(m.attempts, row.Attempts, last.Attempts)
		add(m.retries, row.Retries, last.Retries)
		add(m.throttled, row.Throttled, last.Throttled)
		add(m.hedges, row.Hedges, last.Hedges)
		add(m.hedgeWins, row.HedgeWins, last.HedgeWins)
		add(m.skipped, row.Skipped, last.Skipped)
		for _, ev := range row.Breaker[len(last.Breaker):] {
			switch ev.State {
			case BreakerOpen:
				m.breakerOpens.Inc()
			case BreakerHalfOpen:
				m.breakerHalf.Inc()
			case BreakerClosed:
				m.breakerCl.Inc()
			}
		}
		*last = *row
		switch phase {
		case shardOpen:
			m.shardsInflight.Add(1)
		case shardClose:
			m.shardsInflight.Add(-1)
			if row.Degraded {
				m.shardsDegraded.Inc()
			}
		}
	}
	switch phase {
	case shardOpen:
		// The span ID derives from the tracer seed and the shard address,
		// never from scheduling, so replayed sweeps trace identically.
		v.span = s.tracer.StartSpan("shard", row.Shard.String(), uint64(row.Shard.Addr.Uint32()), uint64(row.Shard.Bits))
	case shardClose:
		v.span.Event(TraceFound, uint64(row.Found))
		v.span.Event(TraceAbsent, uint64(row.Absent-row.CacheHits))
		v.span.Event(TraceErrors, uint64(row.Errors))
		v.span.Event(TraceCached, uint64(row.CacheHits))
		for _, ev := range row.Breaker {
			v.span.Event(TraceBreaker, uint64(ev.State))
		}
		v.span.End()
	}
}
