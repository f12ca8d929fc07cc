package analysis

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	for _, v := range []float64{5, 15, 15, 95, -1, 100, 150} {
		h.Observe(v)
	}
	if h.Counts[0] != 1 || h.Counts[1] != 2 || h.Counts[9] != 1 {
		t.Fatalf("counts = %v", h.Counts)
	}
	if h.Underflow != 1 || h.Overflow != 2 {
		t.Fatalf("under=%d over=%d", h.Underflow, h.Overflow)
	}
	if h.Total() != 4 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.BinCenter(0) != 5 {
		t.Fatalf("center = %v", h.BinCenter(0))
	}
}

func TestHistogramPeaks(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	// Peaks at bins 2 and 7.
	data := map[float64]int{2.5: 10, 1.5: 3, 3.5: 4, 7.5: 8, 6.5: 2, 8.5: 1}
	for v, n := range data {
		for i := 0; i < n; i++ {
			h.Observe(v)
		}
	}
	peaks := h.PeakBins(5)
	if len(peaks) != 2 || peaks[0] != 2 || peaks[1] != 7 {
		t.Fatalf("peaks = %v", peaks)
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if got := c.At(5); got != 0.5 {
		t.Fatalf("At(5) = %v", got)
	}
	if got := c.At(0); got != 0 {
		t.Fatalf("At(0) = %v", got)
	}
	if got := c.At(10); got != 1 {
		t.Fatalf("At(10) = %v", got)
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(vals []float64, a, b float64) bool {
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		c := NewCDF(vals)
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return c.At(lo) <= c.At(hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyCDF(t *testing.T) {
	c := NewCDF(nil)
	if c.At(5) != 0 {
		t.Fatal("empty CDF At != 0")
	}
}

func seriesOf(vals ...float64) Series {
	start := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	s := Series{Values: vals}
	for i := range vals {
		s.Dates = append(s.Dates, start.AddDate(0, 0, i))
	}
	return s
}

func TestPercentOfMax(t *testing.T) {
	s := seriesOf(50, 100, 25).PercentOfMax()
	if s.Values[0] != 50 || s.Values[1] != 100 || s.Values[2] != 25 {
		t.Fatalf("values = %v", s.Values)
	}
	z := seriesOf(0, 0).PercentOfMax()
	if z.Values[0] != 0 {
		t.Fatal("zero series mishandled")
	}
}

func TestSeriesMean(t *testing.T) {
	s := seriesOf(5, 1, 9, 3)
	mean := s.MeanBetween(s.Dates[0], s.Dates[2])
	if mean != 3 {
		t.Fatalf("mean = %v", mean)
	}
	if !math.IsNaN(s.MeanBetween(s.Dates[0], s.Dates[0])) {
		t.Fatal("empty window mean not NaN")
	}
}

func TestCrossoverAfter(t *testing.T) {
	a := seriesOf(10, 9, 5, 2)
	b := seriesOf(3, 4, 5, 8)
	got := CrossoverAfter(a, b, a.Dates[0], 1)
	if !got.Equal(a.Dates[2]) {
		t.Fatalf("crossover = %v, want %v", got, a.Dates[2])
	}
	if got := CrossoverAfter(b, seriesOf(0, 0, 0, 0), b.Dates[0], 1); !got.IsZero() {
		t.Fatalf("phantom crossover %v", got)
	}
}

func TestTruncateTo5Min(t *testing.T) {
	at := time.Date(2021, 11, 1, 9, 13, 45, 0, time.UTC)
	want := time.Date(2021, 11, 1, 9, 10, 0, 0, time.UTC)
	if got := TruncateTo5Min(at); !got.Equal(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}
