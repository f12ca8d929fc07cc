// Package analysis provides the shared statistical helpers the experiment
// pipeline uses: histograms, empirical CDFs, percent-of-maximum series and
// time bucketing.
package analysis

import (
	"math"
	"sort"
	"time"
)

// Histogram counts values into fixed-width bins over [Min, Max).
type Histogram struct {
	Min, Max  float64
	BinWidth  float64
	Counts    []int
	Underflow int
	Overflow  int
}

// NewHistogram creates a histogram with the given range and bin count.
func NewHistogram(min, max float64, bins int) *Histogram {
	if bins <= 0 {
		bins = 1
	}
	return &Histogram{
		Min: min, Max: max,
		BinWidth: (max - min) / float64(bins),
		Counts:   make([]int, bins),
	}
}

// Observe adds a value.
func (h *Histogram) Observe(v float64) {
	if v < h.Min {
		h.Underflow++
		return
	}
	if v >= h.Max {
		h.Overflow++
		return
	}
	idx := int((v - h.Min) / h.BinWidth)
	if idx >= len(h.Counts) {
		idx = len(h.Counts) - 1
	}
	h.Counts[idx]++
}

// Total returns the number of in-range observations.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Min + (float64(i)+0.5)*h.BinWidth
}

// PeakBins returns the indices of local maxima whose count is at least
// minCount, sorted by index. A bin is a local maximum if it is at least as
// large as both neighbours and strictly larger than one of them.
func (h *Histogram) PeakBins(minCount int) []int {
	var peaks []int
	for i, c := range h.Counts {
		if c < minCount {
			continue
		}
		left, right := 0, 0
		if i > 0 {
			left = h.Counts[i-1]
		}
		if i+1 < len(h.Counts) {
			right = h.Counts[i+1]
		}
		if c >= left && c >= right && (c > left || c > right) {
			peaks = append(peaks, i)
		}
	}
	return peaks
}

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples (copied and sorted).
func NewCDF(samples []float64) *CDF {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Len returns the sample count.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P(X <= v).
func (c *CDF) At(v float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(v, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Series is a time series of values.
type Series struct {
	Dates  []time.Time
	Values []float64
}

// PercentOfMax normalizes the series to percent of its maximum, the
// presentation of the paper's Figures 9 and 10.
func (s Series) PercentOfMax() Series {
	max := 0.0
	for _, v := range s.Values {
		if v > max {
			max = v
		}
	}
	out := Series{Dates: s.Dates, Values: make([]float64, len(s.Values))}
	if max == 0 {
		return out
	}
	for i, v := range s.Values {
		out.Values[i] = 100 * v / max
	}
	return out
}

// MeanBetween averages values with dates in [from, to).
func (s Series) MeanBetween(from, to time.Time) float64 {
	sum, n := 0.0, 0
	for i, d := range s.Dates {
		if !d.Before(from) && d.Before(to) {
			sum += s.Values[i]
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// CrossoverAfter finds the first date at or after `from` where series a
// drops to or below series b and stays there for at least minRun
// consecutive samples (so a one-holiday dip does not count as a regime
// change). It returns the zero time if no sustained crossover occurs.
func CrossoverAfter(a, b Series, from time.Time, minRun int) time.Time {
	if minRun < 1 {
		minRun = 1
	}
	n := len(a.Dates)
	if len(b.Dates) < n {
		n = len(b.Dates)
	}
	run := 0
	var start time.Time
	for i := 0; i < n; i++ {
		if a.Dates[i].Before(from) {
			continue
		}
		if a.Values[i] <= b.Values[i] {
			if run == 0 {
				start = a.Dates[i]
			}
			run++
			if run >= minRun {
				return start
			}
		} else {
			run = 0
		}
	}
	return time.Time{}
}

// TruncateTo5Min truncates a timestamp to its five-minute bucket, matching
// the paper's supplementary-data merging rule ("we add, next to the
// original timestamp, a truncated timestamp per five minutes", Section 6.1).
func TruncateTo5Min(t time.Time) time.Time {
	return t.Truncate(5 * time.Minute)
}
