// Package obs is the campaign-level observability layer: where
// internal/telemetry watches one sweep, obs watches how sweep health,
// coverage, and churn evolve across the days of a longitudinal campaign —
// the axis the paper's findings live on.
//
// It has three parts. A Recorder captures one Frame per campaign day
// (metric digests and counter deltas, snapshot coverage and churn, the
// resilience HealthReport summary) into a ring-bounded Store that dumps
// and reloads as JSONL. A declarative SLO engine (Rules) evaluates each
// frame against error-rate, coverage, breaker, and retry budgets with
// error-budget accounting across the campaign. A Detector flags days
// whose counter deltas diverge from the campaign's own history (robust
// z-score and EWMA, seeded thresholds) — exactly the days the
// dynamicity/leak verdicts are least trustworthy. Stitch joins the
// correlated spans the lower layers emit (see telemetry.CorrID) back
// into per-probe causal chains.
//
// Everything here is deterministic: capturing the same seeded campaign
// twice yields bit-identical frame JSONL, SLO verdicts, and anomaly
// flags. Scheduling-dependent counters (merge stalls, hedges) are
// excluded from digests and deltas, the same exclusion list the faultsim
// determinism tests use.
package obs

import (
	"time"

	"rdnsprivacy/internal/scanengine"
)

// Frame is one campaign day's observability record: what the sweep did,
// what it found, and how trustworthy it was. Frames are pure data —
// comparable, JSON-serializable, and free of pointers into live state.
type Frame struct {
	// Index is the 0-based snapshot index within the campaign.
	Index int `json:"index"`
	// Date is the campaign date the snapshot models.
	Date time.Time `json:"date"`

	// MetricsDigest is the registry's deterministic digest after this
	// day's sweep (hex; scheduling-dependent counters excluded). Equal
	// digests on equal days is the replay-determinism invariant.
	MetricsDigest string `json:"metrics_digest,omitempty"`
	// Deltas are the per-counter increments since the previous frame,
	// deterministic counters only, zero-delta names omitted.
	Deltas map[string]uint64 `json:"deltas,omitempty"`

	// Records is the size of the day's merged record set.
	Records int `json:"records"`
	// Probes..Skipped mirror the sweep's Stats tally.
	Probes    uint64 `json:"probes"`
	Found     uint64 `json:"found"`
	Absent    uint64 `json:"absent"`
	Errors    uint64 `json:"errors"`
	Retries   uint64 `json:"retries,omitempty"`
	Skipped   uint64 `json:"skipped,omitempty"`
	CacheHits uint64 `json:"cache_hits,omitempty"`

	// Added/Removed/Changed count the day's churn against the previous
	// sweep's baseline.
	Added   int `json:"added"`
	Removed int `json:"removed"`
	Changed int `json:"changed"`

	// Partial / Degraded mirror the snapshot's trust flags.
	Partial  bool `json:"partial,omitempty"`
	Degraded bool `json:"degraded,omitempty"`
	// DegradedPrefixes lists the address ranges whose records are
	// incomplete this day (from the HealthReport).
	DegradedPrefixes []string `json:"degraded_prefixes,omitempty"`
	// BreakerOpens is the day's circuit-breaker open count.
	BreakerOpens uint64 `json:"breaker_opens,omitempty"`
	// HealthFingerprint is HealthReport.Fingerprint in hex, empty when
	// the sweep ran without the resilience layer.
	HealthFingerprint string `json:"health_fingerprint,omitempty"`

	// Store carries the history store's cumulative append/compaction
	// state after this day's append, when the campaign writes one (see
	// Recorder.SetStoreStats).
	Store *StoreStats `json:"store,omitempty"`

	// Vantage carries the day's cross-vantage disagreement summary when
	// the campaign ran several vantage points over the same universe
	// (internal/vantage builds those frames). Single-vantage
	// campaigns leave it nil.
	Vantage *VantageStats `json:"vantage,omitempty"`
}

// VantageStats mirrors one day of internal/vantage's disagreement
// analysis inside a frame — a local copy so obs stays import-free of the
// campaign layer; internal/vantage converts between the two. Counts are
// per-octet classifications across the day's per-writer views.
type VantageStats struct {
	// Vantages is the number of vantage points compared.
	Vantages int `json:"vantages"`
	// Agreements counts records every vantage saw with the same name.
	Agreements int `json:"agreements"`
	// Missed counts (vantage, record) pairs where an established record
	// was absent from one vantage's view.
	Missed int `json:"missed"`
	// OnlyAt counts records exactly one vantage saw.
	OnlyAt int `json:"only_at"`
	// Conflicts counts (vantage, record) pairs with a name differing
	// from the cross-vantage reference.
	Conflicts int `json:"conflicts"`
	// Lagged counts deviations excused by the lag window: the vantage
	// matched a recent reference state, it was just behind.
	Lagged int `json:"lagged"`
	// Changes counts reference-view PTR transitions this day;
	// FullyCorroborated how many every vantage's view confirmed.
	Changes           int `json:"changes"`
	FullyCorroborated int `json:"fully_corroborated"`
	// MeanCorroboration is the day's mean per-change corroboration
	// score in [0,1] (1 when the day had no changes).
	MeanCorroboration float64 `json:"mean_corroboration"`
}

// StoreStats mirrors the history store's summary inside a frame. It is a
// local copy of the fields (not histstore.Stats itself) so obs stays
// import-free of the storage layer; scan converts between the two.
type StoreStats struct {
	// Snapshots is the number of snapshots in the store so far.
	Snapshots int `json:"snapshots"`
	// Blocks is the number of /24 blocks the store indexes.
	Blocks int `json:"blocks"`
	// BaseFrames and DeltaFrames count block frames written so far; every
	// base past a block's first is a delta-chain compaction.
	BaseFrames  int `json:"base_frames"`
	DeltaFrames int `json:"delta_frames"`
	// Bytes is the store's total on-disk size (tails plus segments).
	Bytes int64 `json:"bytes"`

	// Segment-tiering and compaction progress; zero for a store that has
	// never compacted.
	Segments        int    `json:"segments,omitempty"`
	SealedBytes     int64  `json:"sealed_bytes,omitempty"`
	HotSegments     int    `json:"hot_segments,omitempty"`
	Writers         int    `json:"writers,omitempty"`
	Compactions     uint64 `json:"compactions,omitempty"`
	SealedSnapshots uint64 `json:"sealed_snapshots,omitempty"`
	ReclaimedBytes  int64  `json:"reclaimed_bytes,omitempty"`
}

// ErrorRate is the day's probe error fraction (0 when nothing was probed).
func (f Frame) ErrorRate() float64 {
	if f.Probes == 0 {
		return 0
	}
	return float64(f.Errors) / float64(f.Probes)
}

// Coverage is the fraction of planned addresses actually probed: probes
// over probes plus degradation-skipped. 1 when nothing was skipped.
func (f Frame) Coverage() float64 {
	total := f.Probes + f.Skipped
	if total == 0 {
		return 1
	}
	return float64(f.Probes) / float64(total)
}

// RetryRate is scan-level retries per probe (0 when nothing was probed).
func (f Frame) RetryRate() float64 {
	if f.Probes == 0 {
		return 0
	}
	return float64(f.Retries) / float64(f.Probes)
}

// Churn is the day's total record delta count.
func (f Frame) Churn() int { return f.Added + f.Removed + f.Changed }

// Corroboration is the day's mean cross-vantage corroboration score.
// Frames without vantage stats (single-vantage campaigns) report 1: an
// uncontested view is vacuously corroborated, so Rules.MinCorroboration
// only bites where disagreement is measurable.
func (f Frame) Corroboration() float64 {
	if f.Vantage == nil {
		return 1
	}
	return f.Vantage.MeanCorroboration
}

// SetStats copies a sweep tally — one sweep's, or a day's summed across
// vantages — into the frame's Probes..CacheHits fields.
func (f *Frame) SetStats(st scanengine.Stats) {
	f.Probes = st.Probes
	f.Found = st.Found
	f.Absent = st.Absent
	f.Errors = st.Errors
	f.Retries = st.Retries
	f.Skipped = st.Skipped
	f.CacheHits = st.CacheHits
}

// frameFromSnapshot summarizes one sweep into frame fields (everything
// except the metric digest and deltas, which the Recorder owns).
func frameFromSnapshot(index int, date time.Time, snap *scanengine.Snapshot) Frame {
	f := Frame{Index: index, Date: date}
	if snap == nil {
		return f
	}
	f.Records = snap.Blocks.Len()
	f.SetStats(snap.Stats)
	for _, ch := range snap.Changes {
		switch ch.Kind {
		case scanengine.RecordAdded:
			f.Added++
		case scanengine.RecordRemoved:
			f.Removed++
		case scanengine.RecordChanged:
			f.Changed++
		}
	}
	f.Partial = snap.Partial
	f.Degraded = snap.Degraded
	if h := snap.Health; h != nil {
		for _, p := range h.Degraded {
			f.DegradedPrefixes = append(f.DegradedPrefixes, p.String())
		}
		f.BreakerOpens = uint64(h.Totals.BreakerOpens)
		f.HealthFingerprint = Hex16(h.Fingerprint())
	}
	return f
}
