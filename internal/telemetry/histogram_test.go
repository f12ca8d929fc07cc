package telemetry

import (
	"math"
	"testing"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	// Upper bounds are inclusive (le semantics, matching Prometheus).
	cases := []struct {
		name    string
		buckets []float64
		obs     []float64
		want    []uint64 // per-bucket counts
		over    uint64
	}{
		{
			name:    "exact bound lands in its bucket",
			buckets: []float64{1, 2, 4},
			obs:     []float64{1, 2, 4},
			want:    []uint64{1, 1, 1},
		},
		{
			name:    "just above bound spills to next",
			buckets: []float64{1, 2, 4},
			obs:     []float64{1.0001, 2.0001, 4.0001},
			want:    []uint64{0, 1, 1},
			over:    1,
		},
		{
			name:    "zero and negative land in first bucket",
			buckets: []float64{1, 2},
			obs:     []float64{0, -3},
			want:    []uint64{2, 0},
		},
		{
			name:    "unsorted bounds are sorted at construction",
			buckets: []float64{4, 1, 2},
			obs:     []float64{0.5, 1.5, 3},
			want:    []uint64{1, 1, 1},
		},
		{
			name:    "all overflow",
			buckets: []float64{1},
			obs:     []float64{2, 3, 4},
			want:    []uint64{0},
			over:    3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHistogram(tc.buckets)
			for _, v := range tc.obs {
				h.Observe(v)
			}
			s := h.Snapshot()
			for i, want := range tc.want {
				if s.Counts[i] != want {
					t.Errorf("bucket %d (le=%g): got %d, want %d", i, s.Buckets[i], s.Counts[i], want)
				}
			}
			if s.Overflow != tc.over {
				t.Errorf("overflow: got %d, want %d", s.Overflow, tc.over)
			}
			if want := uint64(len(tc.obs)); s.Count != want {
				t.Errorf("count: got %d, want %d", s.Count, want)
			}
		})
	}
}

func TestHistogramSum(t *testing.T) {
	h := newHistogram([]float64{1, 10})
	for _, v := range []float64{0.25, 0.5, 3, 42} {
		h.Observe(v)
	}
	if got, want := h.Sum(), 45.75; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
}

// TestQuantileErrorBound feeds a known distribution through the default
// latency buckets and checks every estimated quantile lands within the
// width of the bucket owning the true quantile — the documented bound.
func TestQuantileErrorBound(t *testing.T) {
	buckets := DefaultLatencyBuckets()
	h := newHistogram(buckets)
	// 10k deterministic samples spread over [0.0001, 1): v = (i mod 1000 + 1) / 1000.
	var samples []float64
	for i := 0; i < 10000; i++ {
		samples = append(samples, float64(i%1000+1)/1000)
	}
	for _, v := range samples {
		h.Observe(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		truth := float64(int(q*1000)) / 1000 // samples are uniform over {0.001..1.000}
		got := h.Quantile(q)
		// Bound: width of the bucket containing the true quantile.
		width := bucketWidthFor(buckets, truth)
		if math.Abs(got-truth) > width {
			t.Errorf("q=%g: estimate %g vs truth %g exceeds bucket width %g", q, got, truth, width)
		}
	}
}

func bucketWidthFor(bounds []float64, v float64) float64 {
	lo := 0.0
	for _, ub := range bounds {
		if v <= ub {
			return ub - lo
		}
		lo = ub
	}
	return math.Inf(1)
}

func TestQuantileEdgeCases(t *testing.T) {
	var empty *Histogram
	if empty.Quantile(0.5) != 0 {
		t.Error("nil histogram quantile must be 0")
	}
	h := newHistogram([]float64{1, 2, 4})
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
	h.Observe(10) // only overflow
	if got, want := h.Quantile(0.99), 4.0; got != want {
		t.Errorf("overflow-only quantile must clamp to last bound: got %g, want %g", got, want)
	}
	// q outside [0,1] is clamped, not an error.
	h.Observe(0.5)
	if got := h.Quantile(-1); got < 0 {
		t.Errorf("q=-1 must clamp, got %g", got)
	}
	if got := h.Quantile(2); got > 4 {
		t.Errorf("q=2 must clamp to the max estimate, got %g", got)
	}
}
