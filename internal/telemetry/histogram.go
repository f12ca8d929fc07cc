package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram counts observations into fixed buckets defined by ascending
// upper bounds. Observation and snapshotting are lock-free: each bucket is
// an atomic counter and the total is derived from the buckets at read
// time, so a snapshot taken mid-write is internally consistent (Count ==
// sum of bucket counts) even though it may lag in-flight observations.
//
// Quantiles are estimated by linear interpolation inside the bucket that
// holds the target rank, so the estimation error is bounded by the width
// of that bucket (observations above the last bound estimate to the last
// bound). All methods are safe on a nil receiver.
//
// ObserveExemplar additionally retains, per bucket, the correlation ID of
// the worst (largest) observation that landed there — so a scraped
// histogram can answer not just "what is the p99" but "which query was
// the p99" (see Exemplar and HistogramSnapshot.QuantileExemplar). Plain
// Observe never touches the exemplar slots, so uninstrumented hot paths
// pay nothing.
type Histogram struct {
	bounds  []float64 // ascending upper bounds
	counts  []atomic.Uint64
	over    atomic.Uint64 // observations above the last bound
	sumBits atomic.Uint64 // float64 bits of the running sum
	// exes[i] retains the worst exemplar for bucket i; the extra last slot
	// is the overflow bucket's. Slots start nil and only ObserveExemplar
	// writes them.
	exes []atomic.Pointer[Exemplar]
}

// Exemplar ties one recorded observation to the correlation ID of the
// request that produced it (telemetry.CorrID keying; 0 never occurs — a
// nil slot means "no exemplar yet").
type Exemplar struct {
	// Corr is the cross-layer correlation ID of the exemplar observation.
	Corr uint64 `json:"corr"`
	// Value is the observed value (seconds for latency histograms).
	Value float64 `json:"value"`
}

// DefaultLatencyBuckets spans 50µs to ~30s in roughly doubling steps —
// wide enough for both in-process sources (tens of microseconds) and
// real-socket lookups with retries (seconds). Values are seconds.
func DefaultLatencyBuckets() []float64 {
	return []float64{
		0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
	}
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets()
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Uint64, len(b)),
		exes:   make([]atomic.Pointer[Exemplar], len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, 0) }

// ObserveExemplar records one value and, when corr is non-zero, offers it
// as the bucket's exemplar: the slot keeps whichever observation in that
// bucket was worst (largest). Safe on a nil receiver and safe for
// concurrent use; a racing pair of updates keeps one of the two, and the
// kept exemplar is always an observation that was actually recorded in
// that bucket.
func (h *Histogram) ObserveExemplar(v float64, corr uint64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.counts[i].Add(1)
	} else {
		h.over.Add(1)
	}
	h.addSum(v)
	if corr == 0 {
		return
	}
	slot := &h.exes[i]
	var ex *Exemplar // allocated once this observation beats the slot
	for {
		cur := slot.Load()
		if cur != nil && cur.Value >= v {
			return
		}
		if ex == nil {
			ex = &Exemplar{Corr: corr, Value: v}
		}
		if slot.CompareAndSwap(cur, ex) {
			return
		}
	}
}

func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-th quantile (0 <= q <= 1) from the bucket
// counts; see HistogramSnapshot.Quantile for the estimation rule.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return h.Snapshot().Quantile(q)
}

// Snapshot copies the histogram state. Count equals the sum of Counts plus
// Overflow by construction.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Buckets: append([]float64(nil), h.bounds...),
		Counts:  make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	s.Overflow = h.over.Load()
	s.Count += s.Overflow
	s.Sum = h.Sum()
	for i := range h.exes {
		if ex := h.exes[i].Load(); ex != nil {
			if s.Exemplars == nil {
				s.Exemplars = make([]Exemplar, len(h.exes))
			}
			s.Exemplars[i] = *ex
		}
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	// Buckets are the ascending upper bounds; Counts[i] observations fell
	// in (Buckets[i-1], Buckets[i]].
	Buckets []float64
	Counts  []uint64
	// Overflow counts observations above the last bound.
	Overflow uint64
	// Count is the total number of observations (sum of Counts plus
	// Overflow).
	Count uint64
	// Sum is the running sum of observed values.
	Sum float64
	// Exemplars, when non-nil, holds one slot per bucket plus a final
	// overflow slot: the worst ObserveExemplar observation each bucket has
	// seen (zero Corr = none). Nil when no exemplar was ever offered.
	Exemplars []Exemplar
}

// Merge adds o into s bucket by bucket; both must share their bounds (a
// zero s takes o's). Counts, Overflow, Count and Sum add, and each bucket
// keeps the worse of the two exemplars — ObserveExemplar's own rule — so
// merging the histograms of a partition of the observations gives the
// histogram of all of them.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	if s.Buckets == nil {
		s.Buckets = append([]float64(nil), o.Buckets...)
		s.Counts = make([]uint64, len(o.Counts))
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Overflow += o.Overflow
	s.Count += o.Count
	s.Sum += o.Sum
	if s.Exemplars == nil && o.Exemplars != nil {
		s.Exemplars = make([]Exemplar, len(o.Exemplars))
	}
	for i, ex := range o.Exemplars {
		if cur := s.Exemplars[i]; ex.Corr != 0 && (cur.Corr == 0 || ex.Value > cur.Value) {
			s.Exemplars[i] = ex
		}
	}
}

// BucketExemplar returns bucket i's exemplar (i == len(Buckets) is the
// overflow bucket); ok is false when none was recorded.
func (s HistogramSnapshot) BucketExemplar(i int) (Exemplar, bool) {
	if s.Exemplars == nil || i < 0 || i >= len(s.Exemplars) || s.Exemplars[i].Corr == 0 {
		return Exemplar{}, false
	}
	return s.Exemplars[i], true
}

// QuantileExemplar returns the exemplar of the bucket that holds the
// q-th quantile's rank — the concrete request to look at when the
// quantile is out of budget. When that bucket never recorded an exemplar
// (plain Observe calls, or a racing snapshot), it falls back to the
// nearest lower bucket that did; ok is false when no bucket has one.
func (s HistogramSnapshot) QuantileExemplar(q float64) (Exemplar, bool) {
	if s.Count == 0 || s.Exemplars == nil {
		return Exemplar{}, false
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := uint64(0)
	at := len(s.Buckets) // default: overflow bucket
	for i, c := range s.Counts {
		cum += c
		if c > 0 && float64(cum) >= rank {
			at = i
			break
		}
	}
	for i := at; i >= 0; i-- {
		if ex, ok := s.BucketExemplar(i); ok {
			return ex, true
		}
	}
	return Exemplar{}, false
}

// Quantile estimates the q-th quantile by walking the cumulative bucket
// counts to the target rank and interpolating linearly inside the bucket
// that holds it (the first bucket interpolates from zero). Ranks that land
// in the overflow bucket return the last finite bound — the estimate is
// clamped, not extrapolated.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := uint64(0)
	for i, c := range s.Counts {
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = s.Buckets[i-1]
			}
			hi := s.Buckets[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return s.Buckets[len(s.Buckets)-1]
}
