package replica

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/rdnsserve"
	"rdnsprivacy/internal/testutil"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_cold.txt from the current tree")

const goldenColdFile = "testdata/golden_cold.txt"

// goldenColdStore builds the fixed store: writer alpha appends 18 days
// and seals its first ten into a segment on the way. The writer stays
// open, to compact again during the script; the daemon serves read-only
// handles opened by the returned func.
func goldenColdStore(t *testing.T, dir string) (writer *histstore.Store, open func() (*histstore.Store, error)) {
	t.Helper()
	alpha, err := histstore.Open(dir, histstore.WithWriter("alpha"), histstore.WithBaseInterval(4))
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 18; d++ {
		if err := alpha.Append(campaignStart.AddDate(0, 0, d), goldenRecords(d)); err != nil {
			t.Fatalf("alpha day %d: %v", d, err)
		}
		if d == 9 {
			if _, err := alpha.Compact(context.Background(), histstore.CompactOptions{}); err != nil {
				t.Fatalf("compact alpha at day %d: %v", d, err)
			}
		}
	}
	return alpha, func() (*histstore.Store, error) {
		return histstore.Open(dir, histstore.WithReadOnly(), histstore.WithCache(64))
	}
}

// coldScript runs the fixed script of store documents — stats, the feed
// manifest before and after the writer's compaction, which a reload
// brings into view — and one segment and three tail fetches through h;
// compact is the writer's compaction. It returns one record per
// request: the request line, the status, Content-Type and every X-Repl-*
// header, then the JSON body as served, or the length and SHA-256 of a
// binary feed chunk.
func coldScript(t *testing.T, h http.Handler, compact func()) []byte {
	t.Helper()
	var out bytes.Buffer
	do := func(method, path string, q url.Values) []byte {
		t.Helper()
		target := path
		if len(q) > 0 {
			target += "?" + q.Encode()
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
		fmt.Fprintf(&out, "> %s %s\n< %d\n", method, target, rec.Code)
		var keys []string
		for k := range rec.Header() {
			if k == "Content-Type" || strings.HasPrefix(k, "X-Repl-") {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&out, "< %s: %s\n", k, rec.Header().Get(k))
		}
		body := rec.Body.Bytes()
		if strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
			out.Write(body)
		} else {
			fmt.Fprintf(&out, "%d bytes sha256 %x\n", len(body), sha256.Sum256(body))
		}
		out.WriteString("\n")
		return body
	}
	get := func(path string, q url.Values) []byte { return do(http.MethodGet, path, q) }
	day := func(d int) string { return campaignStart.AddDate(0, 0, d).Format(time.RFC3339) }

	type manifest struct {
		Writers []struct {
			ID       string `json:"id"`
			TailFile string `json:"tail_file"`
			Segments []struct {
				File string `json:"file"`
			} `json:"segments"`
		} `json:"writers"`
	}
	readManifest := func() manifest {
		t.Helper()
		var m manifest
		if err := json.Unmarshal(get("/v1/repl/manifest", nil), &m); err != nil {
			t.Fatal(err)
		}
		if len(m.Writers) != 1 || len(m.Writers[0].Segments) == 0 {
			t.Fatalf("manifest has %d writers, want alpha with a segment", len(m.Writers))
		}
		return m
	}

	get("/v1/at", url.Values{"ip": {"10.0.1.15"}, "t": {day(5)}})
	get("/v1/churn", url.Values{"prefix": {"10.0.0.0/16"}, "from": {day(0)}, "to": {day(17)}})
	get("/v1/stats", nil)
	before := readManifest()
	get("/v1/repl/segment/"+before.Writers[0].Segments[0].File, url.Values{"off": {"0"}, "n": {"100"}})
	get("/v1/repl/tail/alpha", url.Values{"off": {"0"}, "n": {"100"}})
	get("/v1/repl/tail/alpha", url.Values{"off": {"0"}, "file": {before.Writers[0].TailFile}})
	compact()
	do(http.MethodPost, "/v1/admin/reload", nil)
	readManifest()
	get("/v1/repl/tail/alpha", url.Values{"off": {"0"}, "file": {before.Writers[0].TailFile}})
	get("/v1/stats", nil)
	do(http.MethodPost, "/v1/admin/compact", nil)
	return out.Bytes()
}

// TestGoldenColdDocuments pins the bytes of the documents the store
// produces about itself, as rdnsd serves them: /v1/stats and
// /v1/repl/manifest before and after the writer's compaction and the
// reload that serves it, the X-Repl-* headers of segment and tail
// fetches, including a 409 for a tail compaction replaced, and the
// not_found a daemon answers to a compaction request. Refresh the file
// with -update-golden, and only on purpose.
func TestGoldenColdDocuments(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	writer, open := goldenColdStore(t, filepath.Join(t.TempDir(), "primary"))
	defer writer.Close()
	serving, err := open()
	if err != nil {
		t.Fatal(err)
	}
	srv := rdnsserve.New(serving, rdnsserve.Config{Seed: 1, Reopen: open})
	defer srv.Close()
	got := coldScript(t, srv.Handler(), func() {
		res, err := writer.Compact(context.Background(), histstore.CompactOptions{})
		if err != nil || res.Sealed != 8 {
			t.Fatalf("the writer's compaction: %+v, %v; want its 8 tail snapshots sealed", res, err)
		}
	})
	if *updateGolden {
		if err := os.WriteFile(goldenColdFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenColdFile)
	if err != nil {
		t.Fatalf("%v (record it with -update-golden)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d drifted:\n got %s\nwant %s", goldenColdFile, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s drifted: %d lines, recorded %d", goldenColdFile, len(gl), len(wl))
	}
}
