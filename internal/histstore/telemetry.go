package histstore

// Metric names the store registers when a telemetry sink is attached (see
// docs/storage.md and docs/observability.md).
const (
	// MetricAppends counts the snapshots this handle appended.
	MetricAppends = "hist_appends_total"
	// MetricAppendBytes counts the bytes this handle's appends wrote.
	MetricAppendBytes = "hist_append_bytes_total"
	// MetricBaseFrames counts the base block frames this handle's appends
	// wrote — every one past a block's first is a delta-chain compaction.
	// (Stats.BaseFrames counts the frames the store holds.)
	MetricBaseFrames = "hist_base_frames_total"
	// MetricDeltaFrames counts the delta block frames this handle's
	// appends wrote.
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
	// MetricTierLoads counts segment files re-opened by a query after the
	// tier closed them. The index is not re-read: it stays resident.
	MetricTierLoads = "hist_tier_loads_total"
	// MetricTierEvictions counts segment files the tier's LRU closed.
	MetricTierEvictions = "hist_tier_evictions_total"
	// MetricTierHot gauges the number of segments whose file is open.
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
	// bytes rewritten minus the segment bytes that replaced them), summing
	// only the runs that reclaimed; Stats.Compaction.ReclaimedBytes is the
	// signed sum of every run.
	MetricCompactReclaimed = "hist_compact_reclaimed_bytes_total"
)

// publish registers the hist_* views of s on its sink (a no-op without
// one). Each reads a count s keeps anyway: Stats' own ledger, or what
// this handle's appends wrote and its compactions reclaimed.
func (s *Store) publish() {
	sink := s.sink
	if sink == nil {
		return
	}
	sink.CounterView(MetricAppends, s.appends.Load)
	sink.CounterView(MetricAppendBytes, s.appendBytes.Load)
	sink.CounterView(MetricBaseFrames, s.wroteBases.Load)
	sink.CounterView(MetricDeltaFrames, s.wroteDeltas.Load)
	sink.CounterView(MetricReconstructions, s.reconstructions.Load)
	sink.CounterView(MetricCacheHits, func() uint64 { hits, _ := s.cache.counters(); return hits })
	sink.CounterView(MetricCacheMisses, func() uint64 { _, misses := s.cache.counters(); return misses })
	sink.CounterView(MetricTierLoads, s.tierLoads.Load)
	sink.CounterView(MetricTierEvictions, s.tierEvictions.Load)
	sink.CounterView(MetricCompactions, s.compactions.Load)
	sink.CounterView(MetricCompactSealed, s.compactSealed.Load)
	sink.CounterView(MetricCompactReclaimed, s.compactGained.Load)
	stat := func(f func(Stats) int) func() int64 { return func() int64 { return int64(f(s.Stats())) } }
	sink.GaugeView(MetricSnapshots, stat(func(st Stats) int { return st.Snapshots }))
	sink.GaugeView(MetricBlocks, stat(func(st Stats) int { return st.Blocks }))
	sink.GaugeView(MetricBytes, func() int64 { return s.Stats().Bytes })
	sink.GaugeView(MetricCacheEntries, stat(func(st Stats) int { return st.CacheEntries }))
	sink.GaugeView(MetricTierHot, stat(func(st Stats) int { return st.HotSegments }))
	sink.GaugeView(MetricSegments, stat(func(st Stats) int { return st.Segments }))
	sink.GaugeView(MetricSealedBytes, func() int64 { return s.Stats().SealedBytes })
}
