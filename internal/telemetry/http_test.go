package telemetry_test

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"rdnsprivacy/internal/telemetry"
	"rdnsprivacy/internal/testutil"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestExporterEndpoints(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)

	reg := telemetry.NewRegistry()
	reg.Counter("scan_queries_total").Add(123)
	reg.Gauge("scan_workers").Add(8)
	reg.Histogram("probe_seconds", []float64{0.01, 0.1}).Observe(0.05)

	tr := telemetry.NewTracer(11, 16)
	s := tr.StartSpan("shard", "10.0.0.0/16", 0)
	s.Event("probe", 1)
	s.End()

	type health struct {
		Queries int `json:"queries"`
	}
	exp := telemetry.NewExporter(reg,
		telemetry.WithExporterTracer(tr),
		telemetry.WithExporterHealth(func() any { return health{Queries: 123} }),
	)
	addr, err := exp.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	base := fmt.Sprintf("http://%s", addr)

	if code, body := get(t, base+"/metrics"); code != 200 ||
		!strings.Contains(body, "scan_queries_total 123") ||
		!strings.Contains(body, `probe_seconds_bucket{le="+Inf"} 1`) {
		t.Errorf("/metrics: code=%d body=\n%s", code, body)
	}
	if code, body := get(t, base+"/debug/vars"); code != 200 ||
		!strings.Contains(body, `"scan_queries_total": 123`) ||
		!strings.Contains(body, `"scan_workers": 8`) {
		t.Errorf("/debug/vars: code=%d body=\n%s", code, body)
	}
	if code, body := get(t, base+"/health"); code != 200 ||
		!strings.Contains(body, `"queries": 123`) {
		t.Errorf("/health: code=%d body=\n%s", code, body)
	}
	if code, body := get(t, base+"/trace"); code != 200 ||
		!strings.Contains(body, `"name":"shard"`) {
		t.Errorf("/trace: code=%d body=\n%s", code, body)
	}
	if code, body := get(t, base+"/debug/pprof/"); code != 200 ||
		!strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: code=%d body=\n%s", code, body)
	}
}

func TestExporterWithoutOptional(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	exp := telemetry.NewExporter(telemetry.NewRegistry())
	addr, err := exp.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	base := "http://" + addr
	if code, _ := get(t, base+"/health"); code != http.StatusNotFound {
		t.Errorf("/health without source: code=%d, want 404", code)
	}
	if code, _ := get(t, base+"/trace"); code != http.StatusNotFound {
		t.Errorf("/trace without tracer: code=%d, want 404", code)
	}
}

func TestExporterNotReady(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)

	type report struct{ OK bool }
	var last *report // typed nil until the first sweep completes
	tr := telemetry.NewTracer(7, 8)
	exp := telemetry.NewExporter(telemetry.NewRegistry(),
		telemetry.WithExporterTracer(tr),
		telemetry.WithExporterHealth(func() any { return last }),
	)
	addr, err := exp.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	base := "http://" + addr

	// A typed-nil report inside a non-nil any is still "no report yet".
	if code, _ := get(t, base+"/health"); code != http.StatusServiceUnavailable {
		t.Errorf("/health before first report: code=%d, want 503", code)
	}
	if code, body := get(t, base+"/trace"); code != http.StatusNoContent || body != "" {
		t.Errorf("/trace with empty ring: code=%d body=%q, want 204 with no body", code, body)
	}

	last = &report{OK: true}
	sp := tr.StartSpan("shard", "10.0.0.0/16", 0)
	sp.End()

	if code, body := get(t, base+"/health"); code != 200 || !strings.Contains(body, `"OK": true`) {
		t.Errorf("/health after report: code=%d body=%q", code, body)
	}
	if code, body := get(t, base+"/trace"); code != 200 || !strings.Contains(body, `"name":"shard"`) {
		t.Errorf("/trace after span: code=%d body=%q", code, body)
	}
}

func TestExporterDoubleStartAndClose(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	exp := telemetry.NewExporter(telemetry.NewRegistry())
	if _, err := exp.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Start("127.0.0.1:0"); err == nil {
		t.Fatal("second Start must fail")
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := exp.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	// Close without Start is a no-op.
	if err := telemetry.NewExporter(nil).Close(); err != nil {
		t.Fatal(err)
	}
}
