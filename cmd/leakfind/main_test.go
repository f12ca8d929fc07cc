package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/dynamicity"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/names"
	"rdnsprivacy/internal/privleak"
	"rdnsprivacy/internal/scanengine"
)

func TestReadPrefixes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dyn.txt")
	content := `# comment
prefix,max_daily,change_days
10.0.1.0/24,120,14
10.0.2.0/24
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readPrefixes(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("prefixes = %v", got)
	}
	for _, want := range []string{"10.0.1.0/24", "10.0.2.0/24"} {
		if !got[dnswire.MustPrefix(want)] {
			t.Fatalf("missing %s in %v", want, got)
		}
	}
}

func TestReadPrefixesRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(path, []byte("not-a-prefix\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readPrefixes(path); err == nil {
		t.Fatal("garbage prefix accepted")
	}
}

// leakStore writes a small seeded store: three /24s of 60 leases each over
// 20 days, the leases named after given names under a .edu, an ISP and a
// .gov suffix and renamed as they cycle: 3 600 rows in all.
func leakStore(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "hist")
	st, err := histstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	suffixes := []string{"dyn.campus.example.edu", "home.example-isp.net", "wifi.city.example.gov"}
	day := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	recs := scanengine.RecordSet{}
	for d := 0; d < 20; d++ {
		for b, suffix := range suffixes {
			for host := 1; host <= 60; host++ {
				ip := dnswire.IPv4{10, 0, byte(b), byte(host)}
				if _, ok := recs[ip]; !ok || rng.Intn(4) == 0 {
					owner := names.Top50[rng.Intn(len(names.Top50))]
					recs[ip] = dnswire.MustName(fmt.Sprintf("%ss-iphone-%d.%s", owner, host, suffix))
				}
			}
		}
		if err := st.Append(day.AddDate(0, 0, d), recs); err != nil {
			t.Fatal(err)
		}
		if d == 9 {
			if _, err := st.Compact(context.Background(), histstore.CompactOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestObserveStorePagesThroughRange: the report leakfind prints over a
// store, streamed snapshot by snapshot, is byte-identical to the report
// over the rows a full-history Range returns. That the snapshots flatten
// to those rows is histstore's TestEachSnapshotMatchesRange.
func TestObserveStorePagesThroughRange(t *testing.T) {
	dir := leakStore(t)
	st, err := histstore.Open(dir, histstore.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	times := st.Times()
	want, err := st.Range(dnswire.Prefix{}, times[0], times[len(times)-1])
	st.Close()
	if err != nil {
		t.Fatal(err)
	}

	report := func(observe func(func(dataset.Row) error) error) string {
		a := privleak.NewAnalyzer(privleak.Config{MinUniqueNames: 18, MinRatio: 0.03, GivenNames: names.Top50})
		if err := observe(observer(a, nil)); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		printReport(&out, a.Finish())
		return out.String()
	}
	fromRange := report(func(fn func(dataset.Row) error) error {
		for _, r := range want {
			if err := fn(r); err != nil {
				return err
			}
		}
		return nil
	})
	fromStore := report(func(fn func(dataset.Row) error) error { return observeStore(dir, fn) })
	if fromStore != fromRange {
		t.Fatalf("report over the store:\n%s\nreport over Range's rows:\n%s", fromStore, fromRange)
	}
	if !strings.Contains(fromStore, "identified 3 leaking networks") {
		t.Fatalf("the seeded store should leak from all three networks:\n%s", fromStore)
	}
}

// TestRunReadsDynfindReport: leakfind -dynamic takes the file dynfind
// prints, tallies line and all, and counts only the /24s it lists as
// dynamic: two of the store's three networks.
func TestRunReadsDynfindReport(t *testing.T) {
	dir := leakStore(t)
	res := &dynamicity.Result{TotalPrefixes: 3, ConsideredPrefixes: 3, Verdicts: map[dnswire.Prefix]dynamicity.PrefixVerdict{}}
	for _, s := range []string{"10.0.0.0/24", "10.0.2.0/24"} {
		p := dnswire.MustPrefix(s)
		res.DynamicPrefixes = append(res.DynamicPrefixes, p)
		res.Verdicts[p] = dynamicity.PrefixVerdict{Prefix: p, Considered: true, Dynamic: true, MaxDaily: 60, ChangeDays: 19}
	}
	var report bytes.Buffer
	res.WriteReport(&report)
	path := filepath.Join(t.TempDir(), "dyn.txt")
	if err := os.WriteFile(path, report.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errs bytes.Buffer
	if code := run([]string{"-store", dir, "-dynamic", path}, &out, &errs); code != 0 {
		t.Fatalf("leakfind -dynamic over dynfind's report %q: exit %d: %s", report.String(), code, errs.String())
	}
	if !strings.Contains(out.String(), "identified 2 leaking networks") || strings.Contains(out.String(), "home.example-isp.net") {
		t.Fatalf("only the two networks listed dynamic should leak:\n%s", out.String())
	}
	if code := run([]string{"-store", dir, "-dynamic", filepath.Join(t.TempDir(), "absent")}, io.Discard, io.Discard); code != 1 {
		t.Fatalf("leakfind with an unreadable -dynamic file: exit %d, want 1", code)
	}
	if code := run(nil, io.Discard, io.Discard); code != 2 {
		t.Fatalf("leakfind without -store: exit %d, want 2", code)
	}
}
