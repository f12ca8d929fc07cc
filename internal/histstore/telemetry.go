package histstore

import "rdnsprivacy/internal/telemetry"

// Metric names the store registers when a telemetry sink is attached (see
// docs/storage.md and docs/observability.md).
const (
	// MetricAppends counts appended snapshots.
	MetricAppends = "hist_appends_total"
	// MetricAppendBytes counts bytes written to the log.
	MetricAppendBytes = "hist_append_bytes_total"
	// MetricBaseFrames counts base block frames written — every one past
	// a block's first is a delta-chain compaction.
	MetricBaseFrames = "hist_base_frames_total"
	// MetricDeltaFrames counts delta block frames written.
	MetricDeltaFrames = "hist_delta_frames_total"
	// MetricReconstructions counts query walk seeds that rebuilt a block
	// state by reading and decoding frames (cache misses do; hits do not).
	// Compaction and a tail seed that starts where the sealed history ends
	// read the writer's held sealed end states and count nothing.
	MetricReconstructions = "hist_reconstructions_total"
	// MetricCacheHits counts reconstruction-cache hits.
	MetricCacheHits = "hist_cache_hits_total"
	// MetricCacheMisses counts reconstruction-cache misses.
	MetricCacheMisses = "hist_cache_misses_total"
	// MetricSnapshots gauges the number of snapshots in the store.
	MetricSnapshots = "hist_snapshots"
	// MetricBlocks gauges the number of indexed /24 blocks.
	MetricBlocks = "hist_blocks"
	// MetricBytes gauges the log file size.
	MetricBytes = "hist_bytes"
	// MetricCacheEntries gauges the reconstruction cache's occupancy.
	MetricCacheEntries = "hist_cache_entries"
	// MetricTierLoads counts cold segment indexes loaded into the hot
	// tier (a segment's first query after open, or after an eviction).
	MetricTierLoads = "hist_tier_loads_total"
	// MetricTierEvictions counts hot segments evicted by the tier's LRU.
	MetricTierEvictions = "hist_tier_evictions_total"
	// MetricTierHot gauges the number of segments currently hot.
	MetricTierHot = "hist_tier_hot_segments"
	// MetricSegments gauges the store's sealed segments.
	MetricSegments = "hist_tier_segments"
	// MetricSealedBytes gauges the bytes held in sealed segments.
	MetricSealedBytes = "hist_sealed_bytes"
	// MetricCompactions counts completed compaction runs.
	MetricCompactions = "hist_compactions_total"
	// MetricCompactSealed counts snapshots sealed into segments.
	MetricCompactSealed = "hist_compact_sealed_snapshots_total"
	// MetricCompactReclaimed counts bytes reclaimed by compaction (tail
	// bytes rewritten minus the segment bytes that replaced them).
	MetricCompactReclaimed = "hist_compact_reclaimed_bytes_total"
)

// storeMetrics holds the pre-resolved instrument handles. With no sink
// configured the handles stay nil and every call site no-ops through the
// telemetry package's nil-receiver contract.
type storeMetrics struct {
	appends         *telemetry.Counter
	appendBytes     *telemetry.Counter
	baseFrames      *telemetry.Counter
	deltaFrames     *telemetry.Counter
	reconstructions *telemetry.Counter
	cacheHits       *telemetry.Counter
	cacheMisses     *telemetry.Counter
	tierLoads       *telemetry.Counter
	tierEvictions   *telemetry.Counter
	compactions     *telemetry.Counter
	compactSealed   *telemetry.Counter
	compactReclaim  *telemetry.Counter
	snapshots       *telemetry.Gauge
	blocks          *telemetry.Gauge
	bytes           *telemetry.Gauge
	cacheEntries    *telemetry.Gauge
	tierHot         *telemetry.Gauge
	segments        *telemetry.Gauge
	sealedBytes     *telemetry.Gauge
}

// newStoreMetrics resolves the instruments from sink (nil sink yields
// nil handles, so instrumentation costs nothing).
func newStoreMetrics(sink telemetry.Sink) *storeMetrics {
	if sink == nil {
		return &storeMetrics{}
	}
	return &storeMetrics{
		appends:         sink.Counter(MetricAppends),
		appendBytes:     sink.Counter(MetricAppendBytes),
		baseFrames:      sink.Counter(MetricBaseFrames),
		deltaFrames:     sink.Counter(MetricDeltaFrames),
		reconstructions: sink.Counter(MetricReconstructions),
		cacheHits:       sink.Counter(MetricCacheHits),
		cacheMisses:     sink.Counter(MetricCacheMisses),
		tierLoads:       sink.Counter(MetricTierLoads),
		tierEvictions:   sink.Counter(MetricTierEvictions),
		compactions:     sink.Counter(MetricCompactions),
		compactSealed:   sink.Counter(MetricCompactSealed),
		compactReclaim:  sink.Counter(MetricCompactReclaimed),
		snapshots:       sink.Gauge(MetricSnapshots),
		blocks:          sink.Gauge(MetricBlocks),
		bytes:           sink.Gauge(MetricBytes),
		cacheEntries:    sink.Gauge(MetricCacheEntries),
		tierHot:         sink.Gauge(MetricTierHot),
		segments:        sink.Gauge(MetricSegments),
		sealedBytes:     sink.Gauge(MetricSealedBytes),
	}
}
