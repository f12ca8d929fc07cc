package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/dynamicity"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/scan"
)

// TestSeriesFromStoreMatchesCampaign: the series dynfind reads back from a
// campaign's store, compactions and all, counts exactly what the campaign
// counted while it swept, and the heuristic over it finds the validation
// campus's 40 dynamic /24s and nothing else (paper Section 4.1).
func TestSeriesFromStoreMatchesCampaign(t *testing.T) {
	campus, truth, err := netsim.BuildValidationCampus(7, time.UTC)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "hist")
	st, err := histstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := scan.Run(scan.Campaign{
		Universe:     &netsim.Universe{Networks: []*netsim.Network{campus}},
		Start:        time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC),
		End:          time.Date(2021, 3, 31, 0, 0, 0, 0, time.UTC),
		Cadence:      scan.Daily,
		Store:        st,
		CompactEvery: 10,
	})
	if res.StoreErr != nil {
		t.Fatal(res.StoreErr)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	series, err := seriesFromStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Dates) != len(res.Series.Dates) {
		t.Fatalf("the store holds %d snapshots, the campaign swept %d", len(series.Dates), len(res.Series.Dates))
	}
	if !reflect.DeepEqual(series.Counts, res.Series.Counts) {
		t.Fatalf("counts over the store differ from the campaign's: %d /24s, campaign %d", len(series.Counts), len(res.Series.Counts))
	}

	verdict := dynamicity.Analyze(series, dynamicity.PaperConfig())
	flagged := map[dnswire.Prefix]bool{}
	for _, p := range verdict.DynamicPrefixes {
		flagged[p] = true
	}
	tp, fn := 0, 0
	for _, p := range truth["dynamic"] {
		if flagged[p] {
			tp++
		} else {
			fn++
		}
		delete(flagged, p)
	}
	if tp != 40 || fn != 0 || len(flagged) != 0 {
		t.Fatalf("true positives %d, false negatives %d, false positives %d; want 40, 0, 0", tp, fn, len(flagged))
	}

	// dynfind's report over the store is what leakfind -dynamic reads
	// (dynamicity.ReadPrefixes): the 40 dynamic /24s and nothing else.
	var out, errs bytes.Buffer
	if code := run([]string{"-store", dir}, &out, &errs); code != 0 {
		t.Fatalf("dynfind -store: exit %d: %s", code, errs.String())
	}
	if want := fmt.Sprintf("dynamic: 40\nprefix,max_daily,change_days\n%s,", verdict.DynamicPrefixes[0]); !strings.Contains(out.String(), want) {
		t.Fatalf("report lacks %q:\n%s", want, out.String())
	}
	back, err := dynamicity.ReadPrefixes(&out)
	if err != nil {
		t.Fatalf("reading the report back: %v", err)
	}
	if len(back) != len(verdict.DynamicPrefixes) {
		t.Fatalf("the report reads back as %d prefixes, want %d", len(back), len(verdict.DynamicPrefixes))
	}
	for _, p := range verdict.DynamicPrefixes {
		if !back[p] {
			t.Fatalf("the report reads back without %s", p)
		}
	}
}

// TestSeriesFromNoStore: a path that holds no store is an error, not an
// empty series that would print an empty report, and dynfind exits 1 on
// it (2 without -store).
func TestSeriesFromNoStore(t *testing.T) {
	for _, dir := range []string{t.TempDir(), filepath.Join(t.TempDir(), "absent")} {
		series, err := seriesFromStore(dir)
		if !errors.Is(err, histstore.ErrNoStore) || series != nil {
			t.Errorf("%s: series %v, err %v; want ErrNoStore", dir, series, err)
		}
		var out, errs bytes.Buffer
		if code := run([]string{"-store", dir}, &out, &errs); code != 1 || out.Len() != 0 {
			t.Errorf("dynfind -store %s: exit %d, report %q; want exit 1 and no report", dir, code, out.String())
		}
	}
	if code := run(nil, io.Discard, io.Discard); code != 2 {
		t.Errorf("dynfind without -store: exit %d, want 2", code)
	}
}
