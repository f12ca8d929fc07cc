package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"rdnsprivacy/internal/dnsclient"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
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
	appendStore(store, snap)
	if store.Len() != 0 {
		t.Fatalf("a partial sweep was archived: store holds %d snapshots", store.Len())
	}
	snap.Partial = false
	appendStore(store, snap)
	if store.Len() != 1 {
		t.Fatalf("a complete sweep was not archived: store holds %d snapshots", store.Len())
	}
}

// TestObsFramesCarryCompactedStoreState pins the -store -obs-out wiring:
// a frame captured over a store that has compacted reports its segments,
// writers and compaction runs — the whole of scan.StoreStats, not a
// subset of its fields.
func TestObsFramesCarryCompactedStoreState(t *testing.T) {
	store, err := histstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	day := time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC)
	snap := &scanengine.Snapshot{Records: scanengine.RecordSet{}}
	for i := 0; i < 12; i++ {
		snap.Records[dnswire.IPv4{10, 0, 0, byte(i)}] = dnswire.MustName(fmt.Sprintf("h%d.example.org", i))
		if err := store.Append(day.AddDate(0, 0, i), snap.Records); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := store.CompactWriter(context.Background(), histstore.DefaultWriter, histstore.CompactOptions{MinSeal: 4}); err != nil {
		t.Fatal(err)
	}

	rec := newRecorder(telemetry.NewRegistry(), store)
	st := rec.CaptureFrame(0, day, snap).Store
	if st == nil {
		t.Fatal("frame over a store carries no store state")
	}
	if st.Snapshots != 12 || st.Segments == 0 || st.SealedBytes == 0 || st.Writers != 1 || st.Compactions != 1 || st.SealedSnapshots == 0 {
		t.Fatalf("store state in the frame = %+v, want 12 snapshots, one writer, one compaction and its segments", *st)
	}
	if f := newRecorder(telemetry.NewRegistry(), nil).CaptureFrame(0, day, snap); f.Store != nil {
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
