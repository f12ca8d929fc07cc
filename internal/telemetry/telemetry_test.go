package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrentIncrements(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total")
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), uint64(goroutines*perG); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	g := reg.Gauge("y")
	h := reg.Histogram("z", nil)
	c.Inc()
	c.Add(5)
	g.Add(-1)
	h.Observe(1.5)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile must be zero")
	}
	snap := reg.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	var tr *Tracer
	sp := tr.StartSpan("s", "a")
	sp.Event("e", 1)
	sp.End()
	if tr.Digest() != 0 || tr.Len() != 0 {
		t.Fatal("nil tracer must no-op")
	}
}

func TestRegistryGetOrCreateReturnsSameInstrument(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("a") != reg.Counter("a") {
		t.Fatal("Counter must return the same handle per name")
	}
	if reg.Gauge("b") != reg.Gauge("b") {
		t.Fatal("Gauge must return the same handle per name")
	}
	h1 := reg.Histogram("c", []float64{1, 2})
	h2 := reg.Histogram("c", []float64{99}) // buckets ignored on re-get
	if h1 != h2 {
		t.Fatal("Histogram must return the same handle per name")
	}
	if got := len(h2.Snapshot().Buckets); got != 2 {
		t.Fatalf("second registration must keep original buckets, got %d", got)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("dual")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	reg.Gauge("dual")
}

func TestSnapshotWhileWritingConsistency(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", []float64{0.001, 0.01, 0.1, 1})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed float64) {
			defer wg.Done()
			v := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.Observe(v)
				v *= 1.7
				if v > 2 {
					v = seed
				}
			}
		}(0.0003 * float64(i+1))
	}
	// The invariant under test: Count is derived from the buckets, so a
	// snapshot taken mid-write is always internally consistent.
	for i := 0; i < 200; i++ {
		s := h.Snapshot()
		sum := s.Overflow
		for _, c := range s.Counts {
			sum += c
		}
		if sum != s.Count {
			t.Fatalf("snapshot %d inconsistent: bucket sum %d != count %d", i, sum, s.Count)
		}
	}
	close(stop)
	wg.Wait()
}

func TestDeterministicDigest(t *testing.T) {
	build := func() *Registry {
		reg := NewRegistry()
		reg.Counter("q_total").Add(42)
		reg.Gauge("g").Add(-7)
		h := reg.Histogram("lat", []float64{1, 2})
		h.Observe(0.5)
		h.Observe(1.5)
		return reg
	}
	a, b := build(), build()
	if a.DeterministicDigest() != b.DeterministicDigest() {
		t.Fatal("identical registries must digest equal")
	}
	// Histogram bucket placement must not matter, only the count.
	c := NewRegistry()
	c.Counter("q_total").Add(42)
	c.Gauge("g").Add(-7)
	hc := c.Histogram("lat", []float64{1, 2})
	hc.Observe(1.9) // different bucket than b's 0.5
	hc.Observe(0.1)
	if a.DeterministicDigest() != c.DeterministicDigest() {
		t.Fatal("digest must depend on histogram count, not bucket placement")
	}
	c.Counter("q_total").Inc()
	if a.DeterministicDigest() == c.DeterministicDigest() {
		t.Fatal("digest must change when a counter changes")
	}
	// Exclusion removes a name from the hash on both sides.
	d := build()
	d.Counter("noisy_total").Add(999)
	if a.DeterministicDigest("noisy_total") != d.DeterministicDigest("noisy_total") {
		t.Fatal("excluded counters must not affect the digest")
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("scan_queries_total").Add(10)
	reg.Counter(`scan_changes_total{kind="added"}`).Add(3)
	reg.Counter(`scan_changes_total{kind="removed"}`).Add(1)
	reg.Gauge("scan_inflight").Add(2)
	h := reg.Histogram("probe_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5) // overflow

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE scan_queries_total counter\n",
		"scan_queries_total 10\n",
		`scan_changes_total{kind="added"} 3` + "\n",
		`scan_changes_total{kind="removed"} 1` + "\n",
		"# TYPE scan_inflight gauge\n",
		"scan_inflight 2\n",
		"# TYPE probe_seconds histogram\n",
		`probe_seconds_bucket{le="0.1"} 1` + "\n",
		`probe_seconds_bucket{le="1"} 2` + "\n",
		`probe_seconds_bucket{le="+Inf"} 3` + "\n",
		"probe_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n---\n%s", want, out)
		}
	}
	// The labelled family must get exactly one TYPE line.
	if n := strings.Count(out, "# TYPE scan_changes_total"); n != 1 {
		t.Errorf("want 1 TYPE line for scan_changes_total, got %d", n)
	}

	// A labelled histogram's suffixes go on the family name, before the
	// labels, and a family keeps its series together under one TYPE line
	// even where a longer name sorts between its unlabelled and its
	// labelled series: byte-wise, "x_seconds_extra_total" sorts after
	// "x_seconds" and before "x_seconds{...}".
	reg = NewRegistry()
	bounds := []float64{0.1, 1}
	reg.Histogram("x_seconds", bounds).Observe(0.5)
	h = reg.Histogram(`x_seconds{op="a"}`, bounds)
	h.Observe(0.05)
	h.Observe(2)
	reg.Histogram(`x_seconds{op="b"}`, bounds).Observe(0.5)
	reg.Counter("x_seconds_extra_total").Add(4)
	sb.Reset()
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE x_seconds histogram\n" +
		`x_seconds_bucket{le="0.1"} 0` + "\n" +
		`x_seconds_bucket{le="1"} 1` + "\n" +
		`x_seconds_bucket{le="+Inf"} 1` + "\n" +
		"x_seconds_sum 0.5\n" +
		"x_seconds_count 1\n" +
		`x_seconds_bucket{op="a",le="0.1"} 1` + "\n" +
		`x_seconds_bucket{op="a",le="1"} 1` + "\n" +
		`x_seconds_bucket{op="a",le="+Inf"} 2` + "\n" +
		`x_seconds_sum{op="a"} 2.05` + "\n" +
		`x_seconds_count{op="a"} 2` + "\n" +
		`x_seconds_bucket{op="b",le="0.1"} 0` + "\n" +
		`x_seconds_bucket{op="b",le="1"} 1` + "\n" +
		`x_seconds_bucket{op="b",le="+Inf"} 1` + "\n" +
		`x_seconds_sum{op="b"} 0.5` + "\n" +
		`x_seconds_count{op="b"} 1` + "\n" +
		"# TYPE x_seconds_extra_total counter\n" +
		"x_seconds_extra_total 4\n"
	if got := sb.String(); got != want {
		t.Errorf("labelled histogram exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriteJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total").Add(7)
	reg.Gauge("b").Add(-2)
	h := reg.Histogram("c_seconds", []float64{1, 2})
	h.Observe(0.5)
	var sb strings.Builder
	if err := reg.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"a_total": 7`, `"b": -2`, `"count": 1`} {
		if !strings.Contains(out, want) {
			t.Errorf("json output missing %q\n---\n%s", want, out)
		}
	}
}

// TestViews: a view reads its func at Snapshot, appears as the kind it was
// registered as in every export, is replaced by a later registration of
// the same kind, and collides with any other kind under its name.
func TestViews(t *testing.T) {
	reg := NewRegistry()
	var n uint64
	reg.CounterView("v_total", func() uint64 { return n })
	reg.GaugeView("v_level", func() int64 { return -int64(n) })
	h := reg.Histogram("v_part_seconds", []float64{1, 2})
	reg.HistogramView("v_seconds", func() HistogramSnapshot {
		// A view may use the registry: it runs outside the lock.
		return reg.Histogram("v_part_seconds", nil).Snapshot()
	})
	n = 3
	h.Observe(1.5)
	snap := reg.Snapshot()
	if snap.Counters["v_total"] != 3 || snap.Gauges["v_level"] != -3 || snap.Histograms["v_seconds"].Count != 1 {
		t.Fatalf("views read %d, %d, %d; want 3, -3, 1", snap.Counters["v_total"], snap.Gauges["v_level"], snap.Histograms["v_seconds"].Count)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE v_total counter\nv_total 3\n", "# TYPE v_level gauge\nv_level -3\n", "# TYPE v_seconds histogram\n"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, b.String())
		}
	}

	reg.CounterView("v_total", func() uint64 { return 7 })
	if got := reg.Snapshot().Counters["v_total"]; got != 7 {
		t.Fatalf("replaced view reads %d, want 7", got)
	}

	collide := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s must panic", what)
			}
		}()
		f()
	}
	collide("a gauge view over a counter view", func() { reg.GaugeView("v_total", func() int64 { return 0 }) })
	collide("a plain counter over a counter view", func() { reg.Counter("v_total") })
	collide("a counter view over a plain histogram", func() { reg.CounterView("v_part_seconds", func() uint64 { return 0 }) })

	var none *Registry
	none.CounterView("v_total", func() uint64 { return 1 })
	if len(none.Snapshot().Counters) != 0 {
		t.Fatal("a nil registry must ignore views")
	}
}

// TestHistogramMerge: merging the histograms of a partition of the
// observations gives the histogram of all of them — counts, sum, and per
// bucket the worst exemplar.
func TestHistogramMerge(t *testing.T) {
	bounds := []float64{0.01, 0.1, 1}
	whole := newHistogram(bounds)
	parts := []*Histogram{newHistogram(bounds), newHistogram(bounds), newHistogram(bounds)}
	for i, v := range []float64{0.005, 0.05, 0.07, 0.5, 3, 0.09, 0.004, 7} {
		corr := uint64(i + 1)
		whole.ObserveExemplar(v, corr)
		parts[i%len(parts)].ObserveExemplar(v, corr)
	}
	var merged HistogramSnapshot
	for _, p := range parts {
		merged.Merge(p.Snapshot())
	}
	merged.Merge(HistogramSnapshot{}) // an empty part adds nothing
	want := whole.Snapshot()
	// The sums add in another order, so they agree to rounding only.
	if merged.Count != want.Count || merged.Overflow != want.Overflow || math.Abs(merged.Sum-want.Sum) > 1e-12 {
		t.Fatalf("merged count/overflow/sum %d/%d/%g, want %d/%d/%g", merged.Count, merged.Overflow, merged.Sum, want.Count, want.Overflow, want.Sum)
	}
	for i := range want.Counts {
		if merged.Counts[i] != want.Counts[i] {
			t.Fatalf("bucket %d: %d, want %d", i, merged.Counts[i], want.Counts[i])
		}
	}
	for i := range want.Exemplars {
		if merged.Exemplars[i] != want.Exemplars[i] {
			t.Fatalf("bucket %d exemplar %+v, want %+v", i, merged.Exemplars[i], want.Exemplars[i])
		}
	}
}

// TestViewReplacedUnderScrape: a view may be replaced while snapshots
// run, as a daemon's reload replaces its store's views under a scrape;
// every snapshot reads one of the registered funcs.
func TestViewReplacedUnderScrape(t *testing.T) {
	reg := NewRegistry()
	reg.CounterView("v_total", func() uint64 { return 1 })
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				reg.CounterView("v_total", func() uint64 { return 2 })
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if v := reg.Snapshot().Counters["v_total"]; v != 1 && v != 2 {
					t.Errorf("snapshot read %d", v)
					return
				}
			}
		}()
	}
	wg.Wait()
}
