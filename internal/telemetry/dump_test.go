package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestExporterDumpEndpoint covers WithExporterDump's lifecycle: 204 via
// the empty func before any entry exists, then 200 with the configured
// content type and the writer's output once the producer has data.
func TestExporterDumpEndpoint(t *testing.T) {
	var lines []string
	h := NewExporter(NewRegistry(),
		WithExporterDump("/querylog", "application/x-ndjson",
			func(w io.Writer) error {
				for _, l := range lines {
					fmt.Fprintln(w, l)
				}
				return nil
			},
			func() bool { return len(lines) == 0 }),
	).Handler()

	get := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/querylog", nil))
		return rec
	}
	if rec := get(); rec.Code != http.StatusNoContent {
		t.Fatalf("empty dump: status %d, want 204", rec.Code)
	}
	lines = []string{`{"corr":"00000000000000aa"}`, `{"corr":"00000000000000ab"}`}
	rec := get()
	if rec.Code != http.StatusOK {
		t.Fatalf("dump: status %d, want 200", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	if got := rec.Body.String(); got != lines[0]+"\n"+lines[1]+"\n" {
		t.Fatalf("dump body %q", got)
	}
}

func TestExporterAddr(t *testing.T) {
	e := NewExporter(NewRegistry())
	if e.Addr() != "" {
		t.Fatalf("addr before start: %q", e.Addr())
	}
	bound, err := e.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Addr() != bound || !strings.HasPrefix(bound, "127.0.0.1:") {
		t.Fatalf("addr %q, start returned %q", e.Addr(), bound)
	}
}

// TestQuantileExemplarFallback covers the lookup's edge paths: the
// quantile bucket itself has an exemplar, the quantile bucket is empty
// of exemplars so the nearest lower one answers, and no bucket has any.
func TestQuantileExemplarFallback(t *testing.T) {
	bounds := []float64{0.1, 1, 10}
	reg := NewRegistry()

	h := reg.Histogram("hist_fallback_seconds", bounds)
	// Bulk of mass (with an exemplar) in bucket 0; the p99 rank lands in
	// bucket 2, which only saw plain Observes — the fallback must walk
	// down to bucket 0's exemplar.
	for i := 0; i < 99; i++ {
		h.ObserveExemplar(0.05, 7)
	}
	h.Observe(5)
	h.Observe(5)
	ex, ok := h.Snapshot().QuantileExemplar(0.99)
	if !ok || ex.Corr != 7 {
		t.Fatalf("fallback exemplar = %+v, %v; want corr 7", ex, ok)
	}

	// Direct hit: the p99 bucket has its own exemplar.
	h2 := reg.Histogram("hist_direct_seconds", bounds)
	for i := 0; i < 99; i++ {
		h2.ObserveExemplar(0.05, 7)
	}
	h2.ObserveExemplar(5, 9)
	h2.ObserveExemplar(5, 9)
	if ex, ok := h2.Snapshot().QuantileExemplar(0.99); !ok || ex.Corr != 9 {
		t.Fatalf("direct exemplar = %+v, %v; want corr 9", ex, ok)
	}

	// No exemplars anywhere (plain Observe, and corr 0 never claims one).
	h3 := reg.Histogram("hist_none_seconds", bounds)
	h3.Observe(0.05)
	h3.ObserveExemplar(0.2, 0)
	if _, ok := h3.Snapshot().QuantileExemplar(0.99); ok {
		t.Fatal("exemplar reported with none recorded")
	}
	if _, ok := (HistogramSnapshot{}).QuantileExemplar(0.5); ok {
		t.Fatal("exemplar reported for empty snapshot")
	}

	// Overflow observations exemplar into the +Inf slot.
	h4 := reg.Histogram("hist_over_seconds", bounds)
	h4.ObserveExemplar(100, 13)
	s := h4.Snapshot()
	if ex, ok := s.BucketExemplar(len(bounds)); !ok || ex.Corr != 13 {
		t.Fatalf("overflow exemplar = %+v, %v; want corr 13", ex, ok)
	}
	if ex, ok := s.QuantileExemplar(0.99); !ok || ex.Corr != 13 {
		t.Fatalf("overflow quantile exemplar = %+v, %v; want corr 13", ex, ok)
	}
	if h4.Snapshot().Count != 1 || h4.Sum() != 100 {
		t.Fatalf("count %d sum %g, want 1 and 100", h4.Snapshot().Count, h4.Sum())
	}
}

// Addr returns the bound address ("" before Start).
func (e *Exporter) Addr() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.addr
}
