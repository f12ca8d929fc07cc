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

// Trace event codes for the per-probe "probe" span events.
const (
	// TraceProbeAbsent..TraceProbeCached are the Code values of "probe"
	// span events, one per probed address in shard order.
	TraceProbeAbsent uint64 = iota
	TraceProbeFound
	TraceProbeError
	TraceProbeCached
)

// engineMetrics holds the engine's pre-resolved instrument handles.
// Instrument methods are nil-receiver safe; the struct pointer itself is
// nil when telemetry is off, so hot paths pay a single pointer test and
// skip clock reads entirely.
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
// latency as sweeps run. The same counters feed Snapshot.Stats and
// HealthReport.Totals, so exported metrics and the structured report
// cannot drift apart. Without this option the engine records nothing and
// the hot path pays one nil test per site.
func WithTelemetry(sink telemetry.Sink) Option {
	return func(s *Scanner) {
		if sink != nil {
			s.met = newEngineMetrics(sink)
		}
	}
}

// WithTracer records one span per shard (name "shard", attr the prefix,
// ID derived from the tracer seed and the shard address) carrying a
// "probe" event per address in probe order (Code: TraceProbe*) and a
// "breaker" event per circuit-breaker transition (Code: the BreakerState).
// Span digests are time-independent, so two runs of the same seeded
// scenario trace identically — see telemetry.Tracer.Digest.
func WithTracer(tr *telemetry.Tracer) Option {
	return func(s *Scanner) { s.tracer = tr }
}
