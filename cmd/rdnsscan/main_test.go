package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rdnsprivacy/internal/dnsclient"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/obs"
	"rdnsprivacy/internal/scanengine"
)

// TestPartialSweepIsNotArchived pins that -store keeps a cancelled sweep
// out of the history: archiving it would record a removal for every
// address the sweep never reached. A complete sweep of the same records
// is archived.
func TestPartialSweepIsNotArchived(t *testing.T) {
	store, err := histstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	recs := scanengine.RecordSet{dnswire.IPv4{10, 0, 0, 1}: dnswire.MustName("h1.example.org")}
	snap := &scanengine.Snapshot{Blocks: scanengine.Pack(recs), Records: recs, Partial: true}
	appendStore(store, snap, io.Discard)
	if store.Len() != 0 {
		t.Fatalf("a partial sweep was archived: store holds %d snapshots", store.Len())
	}
	snap.Partial = false
	appendStore(store, snap, io.Discard)
	if store.Len() != 1 {
		t.Fatalf("a complete sweep was not archived: store holds %d snapshots", store.Len())
	}
}

// TestStoreSealsAtTheBaseInterval: -store, the store's one writer, seals
// its tail into a segment after the append that brings the tail to the
// store's base interval, and not before.
func TestStoreSealsAtTheBaseInterval(t *testing.T) {
	recs := scanengine.RecordSet{dnswire.IPv4{10, 0, 0, 1}: dnswire.MustName("h1.example.org")}
	snap := &scanengine.Snapshot{Blocks: scanengine.Pack(recs), Records: recs}
	day := time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		earlier, segments, tail int
	}{
		{earlier: 2, segments: 0, tail: 3}, // one short of the interval
		{earlier: 3, segments: 1, tail: 0}, // the append that reaches it
	} {
		dir := t.TempDir()
		st, err := histstore.Open(dir, histstore.WithBaseInterval(4))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tc.earlier; i++ {
			if err := st.Append(day.AddDate(0, 0, i), recs); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		// Opened as rdnsscan opens it: the manifest's interval wins.
		if st, err = histstore.Open(dir); err != nil {
			t.Fatal(err)
		}
		appendStore(st, snap, io.Discard)
		stats := st.Stats()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if stats.Snapshots != tc.earlier+1 || stats.Segments != tc.segments || stats.Writers[0].TailSnapshots != tc.tail {
			t.Errorf("after %d earlier snapshots and one sweep: %d snapshots, %d segments, %d in the tail; want %d segments, %d in the tail",
				tc.earlier, stats.Snapshots, stats.Segments, stats.Writers[0].TailSnapshots, tc.segments, tc.tail)
		}
	}
}

// TestObsFramesCarryCompactedStoreState pins the -store -obs-out wiring:
// a frame captured over a store that run's own append has compacted
// reports its segments, writers and compaction runs (the whole of
// scan.StoreStats, not a subset of its fields), and a frame without
// -store reports no store.
func TestObsFramesCarryCompactedStoreState(t *testing.T) {
	addr, _ := serveZone(t)
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "hist")
	// Three snapshots at a base interval of 4: the sweep's append is the
	// one that reaches it, so run's compaction seals the tail.
	store, err := histstore.Open(storeDir, histstore.WithBaseInterval(4))
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC)
	recs := scanengine.RecordSet{}
	for i := 0; i < 3; i++ {
		recs[dnswire.IPv4{10, 0, 0, byte(i)}] = dnswire.MustName(fmt.Sprintf("h%d.example.org", i))
		if err := store.Append(day.AddDate(0, 0, i), recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	frame := func(args ...string) obs.Frame {
		t.Helper()
		path := filepath.Join(dir, "frames.jsonl")
		var stderr bytes.Buffer
		if code := run(context.Background(), append([]string{"-server", addr, "-prefix", "10.0.0.0/24", "-obs-out", path}, args...), io.Discard, &stderr); code != 0 {
			t.Fatalf("exit %d:\n%s", code, stderr.String())
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		frames, err := obs.ReadFrames(f)
		if err != nil || len(frames) != 1 {
			t.Fatalf("frames %+v, %v; want one", frames, err)
		}
		return frames[0]
	}
	st := frame("-store", storeDir).Store
	if st == nil {
		t.Fatal("frame over a store carries no store state")
	}
	if st.Snapshots != 4 || st.Segments != 1 || st.SealedBytes == 0 || st.Writers != 1 || st.Compactions != 1 || st.SealedSnapshots == 0 {
		t.Fatalf("store state in the frame = %+v, want 4 snapshots, one writer, one compaction and its segment", *st)
	}
	if f := frame(); f.Store != nil {
		t.Fatalf("frame without -store carries store state %+v", *f.Store)
	}
}

// TestCSVPrinter checks what the result func prints: a row per answered
// probe, found ones only with -only-found, unanswered failures on stderr,
// cache hits nowhere.
func TestCSVPrinter(t *testing.T) {
	ip := func(last byte) dnswire.IPv4 { return dnswire.IPv4{192, 0, 2, last} }
	results := []scanengine.Result{
		{IP: ip(1), Found: true, Meta: dnsclient.Response{Outcome: dnsclient.OutcomeSuccess, PTR: "brian.example.org.", RTT: 1500 * time.Microsecond}},
		{IP: ip(2), Meta: dnsclient.Response{Outcome: dnsclient.OutcomeNXDomain, RTT: 250 * time.Microsecond}},
		{IP: ip(3), Err: errors.New("dial: no route")},
		{IP: ip(4), Cached: true},
	}
	for _, c := range []struct {
		onlyFound bool
		want      string
	}{
		{false, "192.0.2.1,NOERROR,brian.example.org.,1.5\n192.0.2.2,NXDOMAIN,,0.2\n"},
		{true, "192.0.2.1,NOERROR,brian.example.org.,1.5\n"},
	} {
		var out, errOut bytes.Buffer
		print := csvPrinter(&out, &errOut, c.onlyFound)
		for _, res := range results {
			print(res)
		}
		if out.String() != c.want {
			t.Errorf("onlyFound=%v: rows\n%swant\n%s", c.onlyFound, out.String(), c.want)
		}
		if got, want := errOut.String(), "192.0.2.3: dial: no route\n"; got != want {
			t.Errorf("onlyFound=%v: stderr %q, want %q", c.onlyFound, got, want)
		}
	}
}
