package telemetry

import (
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
	g.Set(3)
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
		reg.Gauge("g").Set(-7)
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
	c.Gauge("g").Set(-7)
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
	reg.Gauge("scan_inflight").Set(2)
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
}

func TestWriteJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total").Add(7)
	reg.Gauge("b").Set(-2)
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
