package obs

import (
	"math"
	"sort"

	"rdnsprivacy/internal/telemetry"
)

// Detector flags campaign days whose counter deltas diverge from the
// campaign's own history. Two deterministic detectors run side by side: a
// robust z-score (median + 1.4826·MAD over the whole series, so a single
// bad day cannot hide itself by inflating the baseline) and an EWMA
// deviation test (catches slow drifts the z-score's symmetric baseline
// absorbs). Unset thresholds are derived deterministically from Seed, so
// replaying a seeded campaign replays its anomaly flags bit-identically.
type Detector struct {
	// Seed parameterizes the derived default thresholds (same value the
	// campaign was scanned with, by convention).
	Seed int64
	// ZThreshold flags |robust z| above it. <= 0 derives from Seed:
	// 3.5 + seed-jitter in [0, 0.5).
	ZThreshold float64
	// EWMAAlpha is the smoothing factor. <= 0 means 0.3.
	EWMAAlpha float64
	// EWMADeviation flags |delta − ewma| / max(ewma, 1) above it. <= 0
	// derives from Seed: 2 + seed-jitter in [0, 0.5).
	EWMADeviation float64
	// MinFrames is the warm-up: earlier frames are never flagged (the
	// baseline is meaningless on day one). <= 0 means 3.
	MinFrames int
}

// Anomaly is one flagged (frame, counter) pair.
type Anomaly struct {
	// Index is the flagged frame's campaign index.
	Index int `json:"index"`
	// Metric is the counter whose delta diverged.
	Metric string `json:"metric"`
	// Delta is the observed per-day increment.
	Delta uint64 `json:"delta"`
	// Score is the detector statistic that crossed its threshold: the
	// robust z for Kind "zscore", the relative EWMA deviation for "ewma".
	Score float64 `json:"score"`
	// Kind names the detector that fired ("zscore" or "ewma").
	Kind string `json:"kind"`
}

func (d Detector) zThreshold() float64 {
	if d.ZThreshold > 0 {
		return d.ZThreshold
	}
	return 3.5 + float64(telemetry.Mix64(uint64(d.Seed), 0x7a)%512)/1024
}

func (d Detector) ewmaDeviation() float64 {
	if d.EWMADeviation > 0 {
		return d.EWMADeviation
	}
	return 2 + float64(telemetry.Mix64(uint64(d.Seed), 0xe3)%512)/1024
}

func (d Detector) alpha() float64 {
	if d.EWMAAlpha > 0 && d.EWMAAlpha <= 1 {
		return d.EWMAAlpha
	}
	return 0.3
}

func (d Detector) minFrames() int {
	if d.MinFrames > 0 {
		return d.MinFrames
	}
	return 3
}

// Detect scans the frame series and returns flagged (frame, counter)
// pairs, ordered by frame index then counter name. Output is a pure
// function of the frames and the detector parameters.
//
// A dump may concatenate several campaigns' frames (the experiments
// study records the dynamicity series and both longitudinal campaigns
// through one recorder); Index restarts at 0 for each, and Detect cuts
// the series there so no campaign's days are judged against another
// campaign's baseline.
func (d Detector) Detect(frames []Frame) []Anomaly {
	var out []Anomaly
	for _, seg := range splitCampaigns(frames) {
		out = append(out, d.detectSeries(seg)...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Index != out[j].Index {
			return out[i].Index < out[j].Index
		}
		if out[i].Metric != out[j].Metric {
			return out[i].Metric < out[j].Metric
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// splitCampaigns cuts the frame list into contiguous strictly
// index-increasing runs, one per captured campaign.
func splitCampaigns(frames []Frame) [][]Frame {
	var segs [][]Frame
	start := 0
	for i := 1; i < len(frames); i++ {
		if frames[i].Index <= frames[i-1].Index {
			segs = append(segs, frames[start:i])
			start = i
		}
	}
	if start < len(frames) {
		segs = append(segs, frames[start:])
	}
	return segs
}

// detectSeries runs both detectors over one campaign's frames.
func (d Detector) detectSeries(frames []Frame) []Anomaly {
	metrics := metricNames(frames)
	zmax, emax := d.zThreshold(), d.ewmaDeviation()
	alpha, warm := d.alpha(), d.minFrames()

	var out []Anomaly
	for _, name := range metrics {
		series := make([]float64, len(frames))
		for i, f := range frames {
			series[i] = float64(f.Deltas[name])
		}
		med, mad := medianMAD(series)
		// Floor the scale: on a near-constant series (a healthy campaign's
		// daily probe count) the MAD collapses and sub-percent jitter would
		// score as a huge z. Divergence below 1% of the median (or below
		// one count) is never an anomaly.
		scale := math.Max(1.4826*mad, math.Max(0.01*math.Abs(med), 1))
		ewma := series[0]
		for i, x := range series {
			if i >= warm {
				if z := (x - med) / scale; math.Abs(z) > zmax {
					out = append(out, Anomaly{
						Index: frames[i].Index, Metric: name,
						Delta: frames[i].Deltas[name], Score: z, Kind: "zscore",
					})
				}
				if dev := math.Abs(x-ewma) / math.Max(ewma, 1); dev > emax {
					out = append(out, Anomaly{
						Index: frames[i].Index, Metric: name,
						Delta: frames[i].Deltas[name], Score: dev, Kind: "ewma",
					})
				}
			}
			ewma = alpha*x + (1-alpha)*ewma
		}
	}
	return out
}

// metricNames collects every counter named by any frame's deltas, sorted.
func metricNames(frames []Frame) []string {
	seen := make(map[string]bool)
	for _, f := range frames {
		for name := range f.Deltas {
			seen[name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for name := range seen {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// medianMAD returns the median and the median absolute deviation.
func medianMAD(xs []float64) (med, mad float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	med = median(append([]float64(nil), xs...))
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return med, median(dev)
}

// median sorts in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
