package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/obs"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/rdnsserve"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
	"rdnsprivacy/internal/testutil"
)

// writeStore appends days daily snapshots into a fresh store and returns
// its directory. Each /24 of blocks holds eight stable devices
// (brians-iphone among them, the paper's privacy protagonist) and one
// address whose name changes every day.
func writeStore(t *testing.T, days int, blocks ...dnswire.Prefix) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "hist")
	st, err := histstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stable := []string{"brians-iphone", "brians-ipad", "alices-laptop", "printer", "nas", "camera", "thermostat", "tv"}
	start := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	for day := 0; day < days; day++ {
		recs := scanengine.RecordSet{}
		for b, p := range blocks {
			for d, name := range stable {
				recs[p.Nth(10+d)] = dnswire.MustName(fmt.Sprintf("%s.b%d.lan.example.net", name, b))
			}
			recs[p.Nth(200)] = dnswire.MustName(fmt.Sprintf("dhcp-%d.dyn.example.net", day))
		}
		if err := st.AppendBlocks(start.AddDate(0, 0, day), scanengine.Pack(recs)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

var (
	lan1 = dnswire.MustPrefix("10.0.1.0/24")
	lan2 = dnswire.MustPrefix("10.0.2.0/24")
)

func TestParseMix(t *testing.T) {
	p, err := parseMix("at=50,range=20, churn=10,name=10,days=5,stats=5")
	if err != nil || !slices.Equal(p.names, endpointOrder) || !slices.Equal(p.cum, []int{50, 70, 80, 90, 95, 100}) {
		t.Fatalf("mix: %+v err=%v", p, err)
	}
	for _, bad := range []string{"", "at", "at=x", "at=-1", "bogus=5", "at=0,range=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("mix %q accepted", bad)
		}
	}

	// The picker honors zero weights and covers all named endpoints.
	p, err = parseMix("at=1,range=0,days=3")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	state := uint64(42)
	for i := 0; i < 4000; i++ {
		seen[p.pick(splitmix(&state))]++
	}
	if len(seen) != 2 || seen["days"] < 2*seen["at"] {
		t.Fatalf("pick distribution: %v", seen)
	}
}

// TestRunLoadSmoke: a small self-hosted run completes with zero errors,
// the barrier pushes peak in-flight to the worker count, and per-endpoint
// samples add up to the request total.
func TestRunLoadSmoke(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := &loadConfig{
		storePath: writeStore(t, 8, lan1, lan2), seed: 3,
		workers: 64, requests: 512,
		mixSpec: "at=50,range=20,churn=10,name=10,days=5,stats=5",
		rules:   obs.LoadRules{MaxShedRate: 0, MaxP95Seconds: 30, MaxP99Seconds: 30},
	}
	res, err := runLoad(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakInFlight < int64(cfg.workers) {
		t.Fatalf("peak in-flight %d, want >= %d workers (barrier broken)", res.PeakInFlight, cfg.workers)
	}
	var reqs, errs uint64
	for _, s := range res.Samples {
		if s.Label == "total" {
			continue
		}
		reqs += s.Requests
		errs += s.Errors + s.RateLimited + s.Shed
	}
	if reqs != uint64(cfg.requests) || errs != 0 {
		t.Fatalf("accounting: %d requests (want %d), %d failures", reqs, cfg.requests, errs)
	}
	if !res.Report.OK {
		t.Fatalf("SLO verdict: %s %+v", res.Report.Summary(), res.Report.Verdicts)
	}
	if res.Samples[len(res.Samples)-1].Label != "total" || res.Samples[len(res.Samples)-1].Requests != reqs {
		t.Fatalf("total sample: %+v", res.Samples[len(res.Samples)-1])
	}
}

// TestLagSamplesProbeFailure: a target whose post-run /v1/stats probe
// fails must not discard the run — it becomes a failing sample while the
// healthy targets' lag reports still come through.
func TestLagSamplesProbeFailure(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"replica":{"source":"http://primary","bytes_behind":7,"syncs":3}}`))
	}))
	defer replica.Close()
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{}`))
	}))
	defer primary.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // probe hits a refused connection

	var stderr bytes.Buffer
	samples := lagSamples(context.Background(), []string{primary.URL, dead.URL, replica.URL}, &http.Client{}, &stderr)
	if len(samples) != 2 {
		t.Fatalf("samples: %+v", samples)
	}
	if samples[0].Label != "lag:1" || samples[0].Errors != 1 || samples[0].Requests != 1 {
		t.Fatalf("failed probe sample: %+v", samples[0])
	}
	if !strings.Contains(stderr.String(), dead.URL+"/v1/stats") {
		t.Fatalf("the failed probe was not reported: %q", stderr.String())
	}
	if samples[1].Label != "lag:2" || samples[1].BytesBehind != 7 {
		t.Fatalf("replica lag sample: %+v", samples[1])
	}
	// The error-rate rule flags the failed probe in the report.
	if rep := (obs.LoadRules{MaxShedRate: -1}).EvaluateLoad(samples); rep.OK {
		t.Fatalf("failed probe slipped past the error-rate rule: %+v", rep.Verdicts)
	}
}

// TestRunLoadRateLimited: with a tight self-hosted rate limit the run
// counts 429 pushback rather than erroring, and the shed-rate SLO flags
// it.
func TestRunLoadRateLimited(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := &loadConfig{
		storePath: writeStore(t, 4, lan1), seed: 5,
		workers: 4, requests: 200,
		mixSpec: "days=1",
		rate:    1, burst: 1,
		rules: obs.LoadRules{MaxShedRate: 0.01, MaxP95Seconds: -1, MaxP99Seconds: -1},
	}
	res, err := runLoad(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var sample obs.LoadSample
	for _, s := range res.Samples {
		if s.Label == "total" {
			sample = s
		}
	}
	if sample.RateLimited == 0 || sample.Errors != 0 {
		t.Fatalf("expected 429 pushback, got %+v", sample)
	}
	if res.Report.OK {
		t.Fatalf("shed rate %.2f slipped past MaxShedRate 0.01", sample.ShedRate())
	}
}

// TestRunLoadTraced: a -trace run produces a p99 exemplar chain per
// endpoint sample, each resolving through the stitched client+server
// spans to a rendered client→daemon line.
func TestRunLoadTraced(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	cfg := &loadConfig{
		storePath: writeStore(t, 6, lan1, lan2), seed: 9,
		workers: 16, requests: 160,
		mixSpec: "at=70,days=30",
		trace:   true,
		rules:   obs.LoadRules{MaxShedRate: 0, MaxP95Seconds: 30, MaxP99Seconds: 30},
	}
	res, err := runLoad(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ExemplarChains) == 0 {
		t.Fatal("traced run produced no exemplar chains")
	}
	for _, line := range res.ExemplarChains {
		if !strings.HasPrefix(line, "p99 ") {
			t.Fatalf("chain line %q", line)
		}
		if strings.Contains(line, "no spans retained") {
			t.Fatalf("exemplar evicted from a right-sized ring: %q", line)
		}
		if !strings.Contains(line, "client try#") || !strings.Contains(line, "rdnsd ") {
			t.Fatalf("chain %q missing client→daemon layers", line)
		}
	}
	// Every per-endpoint sample with traffic carries a p99 exemplar.
	for _, s := range res.Samples {
		if s.Label == "total" || s.Requests == 0 {
			continue
		}
		if s.P99Corr == "" {
			t.Fatalf("sample %s has no p99 exemplar: %+v", s.Label, s)
		}
	}
	// printReport renders the chains without tripping on any field.
	var buf bytes.Buffer
	printReport(&buf, res)
	if !strings.Contains(buf.String(), "p99 exemplar chains") &&
		!strings.Contains(buf.String(), "p99 ") {
		t.Fatalf("report missing chains:\n%s", buf.String())
	}
}

// TestDumpRecords: the -trace-dump reader accepts files and /trace URLs,
// skips a 204, and fails loudly on a non-200.
func TestDumpRecords(t *testing.T) {
	tr := telemetry.NewTracer(3, 16)
	sp := tr.StartSpanCorr("rdnsd.query", "at", telemetry.CorrID(3, "x", 1))
	sp.End()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/trace":
			w.Write(buf.Bytes())
		case "/empty":
			w.WriteHeader(http.StatusNoContent)
		default:
			w.WriteHeader(http.StatusInternalServerError)
		}
	}))
	defer srv.Close()

	recs, err := dumpRecords(path + ", " + srv.URL + "/trace, " + srv.URL + "/empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records: %d, want 2 (file + URL)", len(recs))
	}
	if _, err := dumpRecords(srv.URL + "/boom"); err == nil {
		t.Fatal("non-200 dump source accepted")
	}
	if _, err := dumpRecords(filepath.Join(t.TempDir(), "missing.jsonl")); err == nil {
		t.Fatal("missing dump file accepted")
	}
}

// TestLearnShapeWalksEveryPage: the targets cover every record of the
// newest day, also past the first /v1/range page, and the name tokens
// are the served names' first tokens.
func TestLearnShapeWalksEveryPage(t *testing.T) {
	var blocks []dnswire.Prefix
	for i := 0; i < 120; i++ { // 1080 records a day: two pages
		blocks = append(blocks, dnswire.MustPrefix(fmt.Sprintf("10.1.%d.0/24", i)))
	}
	st, err := histstore.Open(writeStore(t, 2, blocks...), histstore.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	srv := rdnsserve.New(st, rdnsserve.Config{})
	defer srv.Close()
	hc := &http.Client{Transport: inprocTransport{h: srv.Handler()}}
	c := rdnsclient.New("http://rdnsd.inproc", rdnsclient.WithHTTPClient(hc))
	shape, err := learnShape(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(shape.days) != 2 || !slices.Equal(shape.prefixes, blocks) || len(shape.addrs) != 120*9 || len(shape.tokens) != 120*9 {
		t.Fatalf("shape: %d days, %d /24s, %d addresses, %d tokens; want 2, 120, 1080, 1080",
			len(shape.days), len(shape.prefixes), len(shape.addrs), len(shape.tokens))
	}
	for _, tok := range []string{"brians", "alices", "printer", "dhcp"} {
		if !slices.Contains(shape.tokens, tok) {
			t.Errorf("token %q not drawn from the served names", tok)
		}
	}
	// Names with no token to search make name draws fail, not panic.
	if err := issue(context.Background(), c, "name", new(uint64), servedShape{days: shape.days, prefixes: shape.prefixes}); err == nil {
		t.Error("a name draw without tokens succeeded")
	}
}

// TestRunAimsAtTheServedStore drives a live daemon whose store holds /24s
// the workload could not guess, through run with -url: the /v1/at,
// /v1/range, /v1/churn and /v1/name answers it draws carry records, because the
// targets come from what the daemon serves.
func TestRunAimsAtTheServedStore(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	st, err := histstore.Open(writeStore(t, 5, dnswire.MustPrefix("192.0.2.0/24"), dnswire.MustPrefix("198.51.100.0/24")), histstore.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	srv := rdnsserve.New(st, rdnsserve.Config{})
	defer srv.Close()
	var answers, withRecords [4]atomic.Int64 // at, range, churn, name
	h := srv.Handler()
	daemon := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
		if r.URL.Query().Get("prefix") == "0.0.0.0/0" {
			return // the shape probe, not the workload
		}
		var found bool
		i := -1
		switch r.URL.Path {
		case "/v1/at":
			var at rdnsclient.AtResponse
			i, found = 0, json.Unmarshal(rec.Body.Bytes(), &at) == nil && at.Found
		case "/v1/range":
			var page rdnsclient.RangeResponse
			i, found = 1, json.Unmarshal(rec.Body.Bytes(), &page) == nil && page.Count > 0
		case "/v1/churn":
			var churn rdnsclient.ChurnResponse
			i = 2
			if json.Unmarshal(rec.Body.Bytes(), &churn) == nil {
				for _, d := range churn.Days {
					found = found || d.Added+d.Removed+d.Changed > 0
				}
			}
		case "/v1/name":
			var name rdnsclient.NameResponse
			i, found = 3, json.Unmarshal(rec.Body.Bytes(), &name) == nil && name.Count > 0
		}
		if i >= 0 {
			answers[i].Add(1)
			if found {
				withRecords[i].Add(1)
			}
		}
	}))
	defer daemon.Close()
	defer daemon.Client().CloseIdleConnections()

	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{"-url", daemon.URL, "-workers", "4", "-requests", "120",
		"-mix", "at=1,range=1,churn=1,name=1", "-slo-p95", "-1", "-slo-p99", "-1"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d:\n%s\n%s", code, stdout.String(), stderr.String())
	}
	for i, ep := range []string{"at", "range", "churn", "name"} {
		if answers[i].Load() == 0 || withRecords[i].Load() == 0 {
			t.Errorf("/v1/%s: %d answers, %d of them with records", ep, answers[i].Load(), withRecords[i].Load())
		}
	}
}

// TestRunUsage: -h exits 0; an unknown flag, too few requests, or neither
// -store nor -url exits 2; a store that is not there exits 1.
func TestRunUsage(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-days", "30"}, 2},
		{[]string{"-store", missing, "-workers", "10", "-requests", "5"}, 2},
		{[]string{"-workers", "1", "-requests", "1"}, 2},
		{[]string{"-store", missing, "-workers", "1", "-requests", "1"}, 1},
	} {
		var stderr bytes.Buffer
		if code := run(context.Background(), c.args, io.Discard, &stderr); code != c.code {
			t.Errorf("rdnsload %q exited %d, want %d:\n%s", c.args, code, c.code, stderr.String())
		}
	}
}
