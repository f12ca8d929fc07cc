package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/rdnsserve"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
	"rdnsprivacy/internal/testutil"
)

// TestDaemonNeverWritesItsStore serves a store the way rdnsd does — read-
// only opens through openStore, Reopen from buildConfig — and drives
// every route: the queries, the feed, a reload, and the compaction
// endpoint that no longer exists. The store's writer is closed with a
// tail long enough to seal and one segment's sidecar deleted, so a
// daemon that compacted, took the writer's lock or rebuilt a sidecar
// would show in the directory. Its file names, sizes and contents must
// be what they were before the daemon opened it.
func TestDaemonNeverWritesItsStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "hist")
	w, err := histstore.Open(dir, histstore.WithBaseInterval(4))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	for d := 0; d < 16; d++ {
		recs := scanengine.RecordSet{
			dnswire.MustIPv4("10.0.1.7"): dnswire.MustName("brians-iphone.lan.example.net"),
			dnswire.MustIPv4("10.0.1.9"): dnswire.MustName(fmt.Sprintf("host-%d.dyn.example.net", d%5)),
		}
		if err := w.Append(start.AddDate(0, 0, d), recs); err != nil {
			t.Fatal(err)
		}
		if d == 7 {
			if _, err := w.Compact(context.Background(), histstore.CompactOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	sidecars, err := filepath.Glob(filepath.Join(dir, "*"+histstore.SidecarSuffix))
	if err != nil || len(sidecars) != 1 {
		t.Fatalf("sidecars %v, %v; want one", sidecars, err)
	}
	if err := os.Remove(sidecars[0]); err != nil {
		t.Fatal(err)
	}
	before, err := testutil.DirDigest(dir)
	if err != nil {
		t.Fatal(err)
	}

	o := options{storePath: dir, cacheSize: 64, seed: 1}
	reg := telemetry.NewRegistry()
	st, err := openStore(o, reg)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := buildConfig(o, reg, telemetry.NewTracer(1, 16))
	if err != nil {
		t.Fatal(err)
	}
	srv := rdnsserve.New(st, cfg)
	h := srv.Handler()
	do := func(method, target string, want int) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
		if rec.Code != want {
			t.Fatalf("%s %s: %d %s, want %d", method, target, rec.Code, rec.Body, want)
		}
		return rec.Body.Bytes()
	}

	for _, u := range []string{
		"/v1/at?ip=10.0.1.9&t=2020-03-05",
		"/v1/range?prefix=10.0.1.0/24&from=2020-03-01&to=2020-03-16&limit=7",
		"/v1/churn?prefix=10.0.0.0/16&from=2020-03-01&to=2020-03-16",
		"/v1/name?token=brian",
		"/v1/days",
		"/v1/stats",
	} {
		do(http.MethodGet, u, http.StatusOK)
	}
	var m histstore.FeedManifest
	if err := json.Unmarshal(do(http.MethodGet, "/v1/repl/manifest", http.StatusOK), &m); err != nil {
		t.Fatal(err)
	}
	fw, err := m.Writer()
	if err != nil || len(fw.Segments) != 1 {
		t.Fatalf("feed writer %+v, %v; want one segment", fw, err)
	}
	do(http.MethodGet, "/v1/repl/segment/"+fw.Segments[0].File+"?off=0", http.StatusOK)
	do(http.MethodGet, "/v1/repl/tail/"+fw.ID+"?off=0&file="+fw.TailFile, http.StatusOK)
	do(http.MethodPost, "/v1/admin/reload", http.StatusOK)
	var env rdnsclient.ErrorEnvelope
	if err := json.Unmarshal(do(http.MethodPost, "/v1/admin/compact", http.StatusNotFound), &env); err != nil || env.Error.Code != rdnsclient.CodeNotFound {
		t.Fatalf("POST /v1/admin/compact: %+v, %v; want the not_found envelope", env, err)
	}
	do(http.MethodGet, "/v1/at?ip=10.0.1.9&t=2020-03-15", http.StatusOK)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	after, err := testutil.DirDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, sum := range before {
		if after[name] != sum {
			t.Errorf("%s: %q before serving, %q after", name, sum, after[name])
		}
	}
	for name := range after {
		if _, ok := before[name]; !ok {
			t.Errorf("serving created %s", name)
		}
	}
}
