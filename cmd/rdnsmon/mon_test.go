package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/obs"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/rdnsserve"
	"rdnsprivacy/internal/replica"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
	"rdnsprivacy/internal/testutil"
)

var campaignStart = time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)

// dayRecords synthesizes day's record set: per /24 block, four stable
// devices plus one address whose name churns with the day index.
func dayRecords(day, blocks int) scanengine.RecordSet {
	stable := []string{"brians-iphone", "alices-laptop", "printer", "camera"}
	recs := scanengine.RecordSet{}
	for b := 0; b < blocks; b++ {
		for d, name := range stable {
			ip := dnswire.IPv4{10, 0, byte(b + 1), byte(10 + d)}
			recs[ip] = dnswire.MustName(fmt.Sprintf("%s.b%d.lan.example.net", name, b))
		}
		churn := dnswire.IPv4{10, 0, byte(b + 1), 200}
		recs[churn] = dnswire.MustName(fmt.Sprintf("dhcp-%d.dyn.example.net", (day*31+b)%997))
	}
	return recs
}

func appendDays(tb testing.TB, st *histstore.Store, fromDay, n, blocks int) {
	tb.Helper()
	for d := fromDay; d < fromDay+n; d++ {
		if err := st.Append(campaignStart.AddDate(0, 0, d), dayRecords(d, blocks)); err != nil {
			tb.Fatalf("append day %d: %v", d, err)
		}
	}
}

// records round-trips tracers through their JSONL dump form, the shape
// obs.Stitch consumes.
func records(tb testing.TB, trs ...*telemetry.Tracer) []telemetry.SpanRecord {
	tb.Helper()
	var out []telemetry.SpanRecord
	for _, tr := range trs {
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			tb.Fatalf("dump spans: %v", err)
		}
		recs, err := telemetry.ReadSpans(&buf)
		if err != nil {
			tb.Fatalf("read spans: %v", err)
		}
		out = append(out, recs...)
	}
	return out
}

func lenientRules() obs.LoadRules {
	return obs.LoadRules{MaxErrorRate: 0, MaxShedRate: 0, MaxP95Seconds: -1, MaxP99Seconds: -1, MaxReplicaLagBytes: -1}
}

func TestRunUsageErrors(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	cases := []monConfig{
		{rounds: 1},
		{targets: []string{"http://a"}, metrics: []string{"http://m1", "http://m2"}, rounds: 1},
		{targets: []string{"http://a"}, rounds: 0},
	}
	for i, cfg := range cases {
		var out, errb bytes.Buffer
		if code := run(&cfg, &out, &errb); code != 2 {
			t.Errorf("case %d: exit %d, want 2 (stderr %q)", i, code, errb.String())
		}
	}
}

// TestSplitList: the -targets/-metrics flags tolerate spaces, empty items
// and trailing slashes (a target is joined with "/v1/..." later).
func TestSplitList(t *testing.T) {
	got := splitList(" http://a:8077/ ,,http://b:8078 , ")
	if want := []string{"http://a:8077", "http://b:8078"}; !slices.Equal(got, want) {
		t.Fatalf("splitList = %q, want %q", got, want)
	}
	if got := splitList(""); got != nil {
		t.Fatalf("splitList of nothing = %q", got)
	}
}

// TestMonitorUnreachable: a dead daemon becomes a failing sample, shows
// as unreachable on the dashboard, and trips the error-rate gate.
func TestMonitorUnreachable(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	dead := httptest.NewServer(nil)
	dead.Close()
	cfg := &monConfig{targets: []string{dead.URL}, rounds: 1, rules: lenientRules()}
	var out, errb bytes.Buffer
	if code := run(cfg, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "unreachable") || !strings.Contains(errb.String(), "unreachable") {
		t.Fatalf("missing unreachable marker\nstdout: %s\nstderr: %s", out.String(), errb.String())
	}
}

// TestMonitorMetricsColumn: with -metrics URLs the dashboard scrapes the
// Prometheus pages and reports a per-daemon series count.
func TestMonitorMetricsColumn(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	st, err := histstore.Open(filepath.Join(dir, "s"), histstore.WithCache(64))
	if err != nil {
		t.Fatal(err)
	}
	appendDays(t, st, 0, 2, 1)
	reg := telemetry.NewRegistry()
	srv := rdnsserve.New(st, rdnsserve.Config{Sink: reg, Seed: 1})
	defer srv.Close()
	api := httptest.NewServer(srv.Handler())
	defer api.Close()
	mx := httptest.NewServer(telemetry.NewExporter(reg).Handler())
	defer mx.Close()

	cfg := &monConfig{
		targets: []string{api.URL},
		metrics: []string{mx.URL + "/metrics"},
		rounds:  2, interval: time.Millisecond,
		rules: lenientRules(),
	}
	var out, errb bytes.Buffer
	if code := run(cfg, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "series") {
		t.Fatalf("missing series column:\n%s", out.String())
	}
}

// fleetResult is one seeded fleet scenario's observable outcome, compared
// across runs to prove replay determinism.
type fleetResult struct {
	clientCorrs []string // sorted correlation IDs of all traced client requests
	p99Corr     string   // the replica's /v1/stats p99 exemplar
	chain       string   // the stitched chain behind it, rendered
	qlogDigest  uint64   // the replica's canonical query-log digest
}

// runFleetScenario builds a seeded primary+replica fleet, drives traced
// traffic at the replica, proves the /v1/stats p99 exemplar resolves to
// a stitched client→daemon→replica-sync chain, and gates the fleet with
// rdnsmon (exit 0 in SLO, exit 1 under an injected breach).
func runFleetScenario(t *testing.T, seed int64) fleetResult {
	t.Helper()
	ctx := context.Background()
	dir := t.TempDir()

	pst, err := histstore.Open(filepath.Join(dir, "primary"), histstore.WithCache(256), histstore.WithBaseInterval(4))
	if err != nil {
		t.Fatal(err)
	}
	appendDays(t, pst, 0, 6, 2)
	psrv := rdnsserve.New(pst, rdnsserve.Config{Sink: telemetry.NewRegistry(), Seed: seed})
	defer psrv.Close()
	primary := httptest.NewServer(psrv.Handler())
	defer primary.Close()

	// The replica process: serving side and syncer share one tracer, the
	// Stitch contract for generation joining.
	rtracer := telemetry.NewTracer(seed+1, 4096)
	rdir := filepath.Join(dir, "replica")
	syncer, err := replica.New(replica.Config{
		Source: primary.URL, Dir: rdir,
		Tracer: rtracer, Seed: seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if changed, err := syncer.Sync(ctx); err != nil || !changed {
		t.Fatalf("bootstrap sync: changed=%v err=%v", changed, err)
	}
	rst, err := histstore.Open(rdir, histstore.WithCache(256), histstore.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	qlog := rdnsserve.NewQueryLog(rdnsserve.QueryLogConfig{Size: 256, SlowThreshold: 50 * time.Millisecond})
	rsrv := rdnsserve.New(rst, rdnsserve.Config{
		Sink: telemetry.NewRegistry(), Tracer: rtracer, Seed: seed + 1,
		QueryLog: qlog,
		Reopen: func() (*histstore.Store, error) {
			return histstore.Open(rdir, histstore.WithCache(256), histstore.WithReadOnly())
		},
	})
	defer rsrv.Close()
	rsrv.SetReplicaStatus(syncer.Status)
	repl := httptest.NewServer(rsrv.Handler())
	defer repl.Close()

	// Advance the primary and catch up: the second changed sync plus the
	// reload moves the replica to serving generation 1, the generation the
	// sync span stamped.
	appendDays(t, pst, 6, 2, 2)
	if changed, err := syncer.Sync(ctx); err != nil || !changed {
		t.Fatalf("catch-up sync: changed=%v err=%v", changed, err)
	}
	if resp, err := rsrv.Reload(); err != nil || resp.Generation != 1 {
		t.Fatalf("reload: %+v err=%v", resp, err)
	}

	// Traced client traffic against the replica: every request carries an
	// X-Rdns-Corr derived from the seed.
	ctracer := telemetry.NewTracer(seed+2, 4096)
	c := rdnsclient.New(repl.URL,
		rdnsclient.WithTrace(seed+2, ctracer),
		rdnsclient.WithAPIKey("e2e"))
	for d := 0; d < 8; d++ {
		day := campaignStart.AddDate(0, 0, d)
		for b := 0; b < 2; b++ {
			ip := dnswire.IPv4{10, 0, byte(b + 1), 10}
			if _, err := c.At(ctx, ip.String(), day); err != nil {
				t.Fatalf("at day %d block %d: %v", d, b, err)
			}
		}
	}
	if _, err := c.Days(ctx); err != nil {
		t.Fatal(err)
	}
	sr, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Generation != 1 {
		t.Fatalf("replica generation %d, want 1", sr.Generation)
	}
	if sr.Replica == nil || sr.Replica.BytesBehind != 0 {
		t.Fatalf("replica lag report: %+v", sr.Replica)
	}
	if sr.Latency.P99Corr == "" {
		t.Fatal("stats carries no p99 exemplar")
	}
	qlogDigest := qlog.Digest()

	// The exemplar must resolve, via its correlation ID, to a stitched
	// chain crossing all three layers: client span, daemon spans with the
	// serving generation, and the replication sync that delivered it.
	chains := obs.Stitch(records(t, ctracer, rtracer))
	var clientCorrs []string
	var p99Chain *obs.Chain
	for i, ch := range chains {
		if ch.Query != nil {
			clientCorrs = append(clientCorrs, fmt.Sprintf("%016x", ch.Corr))
		}
		if fmt.Sprintf("%016x", ch.Corr) == sr.Latency.P99Corr {
			p99Chain = &chains[i]
		}
	}
	sort.Strings(clientCorrs)
	if p99Chain == nil {
		t.Fatalf("p99 exemplar %s not among %d stitched chains", sr.Latency.P99Corr, len(chains))
	}
	if p99Chain.Query == nil || p99Chain.Daemon == nil {
		t.Fatalf("p99 chain lacks client+daemon spans: %s", p99Chain.Render())
	}
	if p99Chain.Sync == nil {
		t.Fatalf("p99 chain does not join the replica sync: %s", p99Chain.Render())
	}
	if g, ok := p99Chain.Generation(); !ok || g != 1 {
		t.Fatalf("p99 chain generation %d ok=%v, want 1", g, ok)
	}
	rendered := p99Chain.Render()
	if !strings.Contains(rendered, "sync via") {
		t.Fatalf("rendered chain misses the sync leg: %s", rendered)
	}

	// rdnsmon gates the fleet: green within SLO...
	cfg := &monConfig{
		targets: []string{primary.URL, repl.URL},
		rounds:  2, interval: 5 * time.Millisecond,
		rules: lenientRules(),
	}
	var out, errb bytes.Buffer
	if code := run(cfg, &out, &errb); code != 0 {
		t.Fatalf("in-SLO fleet: exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	for _, want := range []string{"fleet status", "qps by daemon", "p99 by round", "d0", "d1"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("dashboard misses %q:\n%s", want, out.String())
		}
	}
	// ...and exit 1 under an injected breach (an impossible p99 bound).
	breach := *cfg
	breach.rules.MaxP99Seconds = 1e-9
	out.Reset()
	errb.Reset()
	if code := run(&breach, &out, &errb); code != 1 {
		t.Fatalf("injected breach: exit %d\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}

	return fleetResult{
		clientCorrs: clientCorrs,
		p99Corr:     sr.Latency.P99Corr,
		chain:       rendered,
		qlogDigest:  qlogDigest,
	}
}

// TestMonitorE2E is the fleet acceptance scenario: exemplar→chain
// resolution, rdnsmon verdicts, and replay determinism — the same seed
// reproduces the same correlation IDs and the same query-log digest.
func TestMonitorE2E(t *testing.T) {
	defer testutil.VerifyNoLeaks(t)
	r1 := runFleetScenario(t, 7)
	r2 := runFleetScenario(t, 7)
	if r1.qlogDigest != r2.qlogDigest {
		t.Fatalf("query-log digest not replay-deterministic: %016x vs %016x", r1.qlogDigest, r2.qlogDigest)
	}
	if strings.Join(r1.clientCorrs, ",") != strings.Join(r2.clientCorrs, ",") {
		t.Fatalf("client correlation IDs differ between replays:\n%v\n%v", r1.clientCorrs, r2.clientCorrs)
	}
	// The p99 exemplar (whichever request was slowest — timing-dependent)
	// must always be one of the deterministic traced correlations.
	found := false
	for _, corr := range r1.clientCorrs {
		if corr == r1.p99Corr {
			found = true
		}
	}
	if !found {
		t.Fatalf("p99 exemplar %s is not a traced client correlation", r1.p99Corr)
	}
}
