package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestGoldenStatisticalHelpers pins the numeric behaviour of every helper
// in this package on a seeded synthetic dataset: a bimodal sample drawn
// from a splitmix64 stream feeds the histogram (bins, under/overflow,
// peaks) and the CDF, and a pair of seeded day series exercises
// PercentOfMax, MeanBetween, and CrossoverAfter. The
// full rendering is checked in as testdata/helpers_seed3.golden so any
// drift in binning, CDF indexing, or crossover run-length logic shows
// up as a one-line diff. Regenerate with `go test ./internal/analysis/
// -run Golden -update`.
func TestGoldenStatisticalHelpers(t *testing.T) {
	var b strings.Builder
	rng := splitmix(3)

	// Bimodal sample: two uniform lobes around 20 and 70, plus a few
	// out-of-range values to land in under/overflow.
	var samples []float64
	for i := 0; i < 600; i++ {
		samples = append(samples, 15+10*unit(rng()))
	}
	for i := 0; i < 400; i++ {
		samples = append(samples, 65+10*unit(rng()))
	}
	samples = append(samples, -5, -1, 105, 110, 200)

	h := NewHistogram(0, 100, 20)
	for _, v := range samples {
		h.Observe(v)
	}
	fmt.Fprintf(&b, "histogram: total=%d underflow=%d overflow=%d\n",
		h.Total(), h.Underflow, h.Overflow)
	for i, c := range h.Counts {
		fmt.Fprintf(&b, "bin[%02d] center=%5.1f count=%d\n", i, h.BinCenter(i), c)
	}
	fmt.Fprintf(&b, "peaks(min=50): %v\n", h.PeakBins(50))

	c := NewCDF(samples)
	fmt.Fprintf(&b, "cdf: n=%d\n", c.Len())
	for _, v := range []float64{0, 25, 50, 75, 100} {
		fmt.Fprintf(&b, "at(%.0f)=%.4f\n", v, c.At(v))
	}

	// Two 30-day series: a declining and a flat one, crossing mid-month.
	day0 := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	a := Series{}
	flat := Series{}
	for i := 0; i < 30; i++ {
		d := day0.AddDate(0, 0, i)
		a.Dates = append(a.Dates, d)
		a.Values = append(a.Values, 100-3*float64(i)+2*unit(rng()))
		flat.Dates = append(flat.Dates, d)
		flat.Values = append(flat.Values, 55+unit(rng()))
	}
	pom := a.PercentOfMax()
	fmt.Fprintf(&b, "series: n=%d\n", len(a.Values))
	for i := range pom.Values {
		fmt.Fprintf(&b, "pom[%02d]=%.4f\n", i, pom.Values[i])
	}
	fmt.Fprintf(&b, "mean[0,15): %.4f\n", a.MeanBetween(day0, day0.AddDate(0, 0, 15)))
	cross := CrossoverAfter(a, flat, day0, 3)
	fmt.Fprintf(&b, "crossover(minRun=3): %s\n", cross.Format("2006-01-02"))
	fmt.Fprintf(&b, "truncate5: %s\n",
		TruncateTo5Min(time.Date(2021, 6, 1, 13, 7, 42, 0, time.UTC)).Format("15:04:05"))

	compareGolden(t, "helpers_seed3.golden", b.String())
}

// splitmix returns a deterministic uint64 stream (splitmix64), avoiding
// math/rand so the golden file cannot drift with the standard library's
// generator.
func splitmix(seed uint64) func() uint64 {
	state := seed
	return func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
}

// unit maps a hash to [0,1).
func unit(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

// compareGolden diffs got against testdata/<name>, rewriting under -update.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got == string(want) {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("golden mismatch at %s:%d\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
	t.Fatalf("golden mismatch against %s (equal lines, differing whitespace?)", path)
}
