package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles a timing may report beside its
// median, lowest first.
var tailCandidates = []float64{90, 95, 99, 99.9}

// tailPercentile picks the highest candidate percentile that still has
// at least ten samples beyond it; below that a percentile is one or two
// outliers, not a statistic. ok is false when even p90 has fewer.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if float64(n)*(100-c)/100 >= 10-1e-9 { // 10000 × 0.1 % is ten, whatever floating point says
			p, ok = c, true
		}
	}
	return p, ok
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// timing is how every latency is reported: the median, the highest
// percentile the sample supports, and the sample count.
type timing struct {
	P50     float64
	Tail    float64 // equals P50 when no tail percentile is supported
	TailPct float64 // 0 when no tail percentile is supported
	N       int
}

// summarize sorts xs in place and reduces it to a timing.
func summarize(xs []float64) timing {
	sort.Float64s(xs)
	t := timing{P50: percentile(xs, 50), N: len(xs)}
	t.Tail = t.P50
	if p, ok := tailPercentile(len(xs)); ok {
		t.Tail, t.TailPct = percentile(xs, p), p
	}
	return t
}

// median returns the middle of xs (mean of the two middles for an even
// count) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b with 0 for an empty denominator, so a layer that did no
// work reports zero rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of their median — the steadiness figure the benchmark
// contract gates on. The quartiles use the exclusive method, matching
// Python's statistics.quantiles(xs, n=4).
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}
