package obs

import (
	"bytes"
	"strings"
	"testing"

	"rdnsprivacy/internal/telemetry"
)

// fleetRecords builds a span dump shaped like one daemon process plus
// its clients: two query chains (one served at a generation a traced
// sync delivered, one at an earlier generation with no sync), the sync
// chain itself, and an error chain that never pinned a store handle.
func fleetRecords(t *testing.T) (recs []telemetry.SpanRecord, corrs map[string]uint64) {
	t.Helper()
	tr := telemetry.NewTracer(11, 64)
	corrs = map[string]uint64{
		"replica-served": telemetry.CorrID(11, "client /v1/at", 1),
		"primary-served": telemetry.CorrID(11, "client /v1/at", 2),
		"sync":           telemetry.CorrID(11, "repl.sync", 1),
		"error":          telemetry.CorrID(11, "client /v1/at", 3),
	}

	// The catch-up sync that produced serving generation 2.
	sync := tr.StartSpanCorr("repl.sync", "http://primary", corrs["sync"])
	sync.Event("gen", 2)
	for i := 0; i < 2; i++ {
		f := tr.StartSpanCorr("repl.fetch", "seg-a-0.seg", corrs["sync"])
		f.Event("bytes", 4096)
		f.End()
	}
	sync.End()

	// A query served from generation 2: client span, daemon root, phases.
	q := tr.StartSpanCorr("rdnsq.client", "/v1/at", corrs["replica-served"])
	q.Event("tx", 1)
	q.Event("status", 200)
	q.End()
	d := tr.StartSpanCorr("rdnsd.query", "at", corrs["replica-served"])
	p := tr.StartSpanCorr("rdnsd.parse", "/v1/at", corrs["replica-served"])
	p.End()
	st := tr.StartSpanCorr("rdnsd.store", "/v1/at", corrs["replica-served"])
	st.Event("gen", 2)
	st.End()
	d.End()

	// A query served from generation 1 — no sync chain claims that gen.
	q = tr.StartSpanCorr("rdnsq.client", "/v1/at", corrs["primary-served"])
	q.Event("tx", 1)
	q.Event("status", 200)
	q.End()
	d = tr.StartSpanCorr("rdnsd.query", "at", corrs["primary-served"])
	st = tr.StartSpanCorr("rdnsd.store", "/v1/at", corrs["primary-served"])
	st.Event("gen", 1)
	st.End()
	d.End()

	// A 400: the daemon span records the error, no store phase ran.
	q = tr.StartSpanCorr("rdnsq.client", "/v1/at", corrs["error"])
	q.Event("tx", 1)
	q.Event("status", 400)
	q.End()
	d = tr.StartSpanCorr("rdnsd.query", "at", corrs["error"])
	d.Event("error", 400)
	d.End()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return recs, corrs
}

func chainFor(t *testing.T, chains []Chain, corr uint64) Chain {
	t.Helper()
	for _, c := range chains {
		if c.Corr == corr {
			return c
		}
	}
	t.Fatalf("no chain for corr %016x", corr)
	return Chain{}
}

func TestStitchFleetChains(t *testing.T) {
	recs, corrs := fleetRecords(t)
	chains := Stitch(recs)
	if len(chains) != 4 {
		t.Fatalf("stitched %d chains, want 4", len(chains))
	}

	// The replica-served query joins the sync chain via the shared gen.
	rc := chainFor(t, chains, corrs["replica-served"])
	if rc.Query == nil || rc.Daemon == nil || rc.Sync == nil {
		t.Fatalf("replica-served chain incomplete: %+v", rc)
	}
	if g, ok := rc.Generation(); !ok || g != 2 {
		t.Fatalf("replica-served generation = %d,%v, want 2", g, ok)
	}
	if len(rc.Phases) != 2 || len(rc.Fetches) != 2 {
		t.Fatalf("phases %d fetches %d, want 2 and 2", len(rc.Phases), len(rc.Fetches))
	}
	line := rc.Render()
	for _, want := range []string{"client try#1 status 200", "rdnsd at [gen 2]", "sync via", "(2 fetches)"} {
		if !strings.Contains(line, want) {
			t.Errorf("render %q missing %q", line, want)
		}
	}

	// The generation-1 query has no matching sync — still complete.
	pc := chainFor(t, chains, corrs["primary-served"])
	if pc.Query == nil || pc.Daemon == nil || pc.Sync != nil {
		t.Fatalf("primary-served chain wrong: complete=%v sync=%v", pc.Query != nil && pc.Daemon != nil, pc.Sync != nil)
	}
	if g, ok := pc.Generation(); !ok || g != 1 {
		t.Fatalf("primary-served generation = %d,%v, want 1", g, ok)
	}
	if line := pc.Render(); strings.Contains(line, "sync via") || !strings.Contains(line, "[gen 1]") {
		t.Errorf("primary-served render wrong: %q", line)
	}

	// The 400 chain has no generation and renders the error event.
	ec := chainFor(t, chains, corrs["error"])
	if _, ok := ec.Generation(); ok {
		t.Fatal("error chain should have no generation")
	}
	if line := ec.Render(); !strings.Contains(line, "error 400") || !strings.Contains(line, "status 400") {
		t.Errorf("error render wrong: %q", line)
	}

	// The sync chain itself stays in the output under its own corr.
	sc := chainFor(t, chains, corrs["sync"])
	if sc.Sync == nil || len(sc.Fetches) != 2 || (sc.Query != nil && sc.Daemon != nil) {
		t.Fatalf("sync chain wrong: %+v", sc)
	}
	if line := sc.Render(); !strings.Contains(line, "sync via") {
		t.Errorf("sync render wrong: %q", line)
	}
}
