package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	out := `goos: linux
BenchmarkRdnsdQuery/at-8         	  139413	      8658 ns/op
BenchmarkRdnsdConcurrentLoad-8   	    5000	    240000 ns/op	    910000 p99-ns/op
some prose line
PASS
`
	rep, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	load := rep.Benchmarks[0]
	if load.Name != "BenchmarkRdnsdConcurrentLoad-8" || load.NsOp != 240000 {
		t.Fatalf("load result: %+v", load)
	}
	if load.Extra["p99-ns/op"] != 910000 {
		t.Fatalf("p99 extra: %+v", load.Extra)
	}
}

func TestCompareGatesExtras(t *testing.T) {
	baseline := &Report{Benchmarks: []Result{
		{Name: "BenchmarkA", NsOp: 1000, Extra: map[string]float64{"p99-ns/op": 5000}},
		{Name: "BenchmarkB", NsOp: 1000},
	}}

	// Within threshold on both metrics: pass.
	fresh := &Report{Benchmarks: []Result{
		{Name: "BenchmarkA", NsOp: 1100, Extra: map[string]float64{"p99-ns/op": 5500}},
		{Name: "BenchmarkB", NsOp: 1000},
	}}
	var sb strings.Builder
	if compare(&sb, baseline, fresh, 0.15, []string{"p99-ns/op"}) {
		t.Fatalf("within-threshold run failed:\n%s", sb.String())
	}

	// ns/op fine but the gated extra regressed past the threshold: fail.
	fresh.Benchmarks[0].Extra["p99-ns/op"] = 9000
	sb.Reset()
	if !compare(&sb, baseline, fresh, 0.15, []string{"p99-ns/op"}) {
		t.Fatalf("p99 regression slipped through:\n%s", sb.String())
	}

	// Same regression without -gate-extras: extras stay informational.
	sb.Reset()
	if compare(&sb, baseline, fresh, 0.15, nil) {
		t.Fatalf("ungated extra failed the check:\n%s", sb.String())
	}

	// Extras present on only one side are never gated.
	fresh.Benchmarks[0].Extra["p99-ns/op"] = 5500
	fresh.Benchmarks[1].Extra = map[string]float64{"p99-ns/op": 1e12}
	sb.Reset()
	if compare(&sb, baseline, fresh, 0.15, []string{"p99-ns/op"}) {
		t.Fatalf("one-sided extra failed the check:\n%s", sb.String())
	}
}

func TestCompareFailsOnGoneBaselineRow(t *testing.T) {
	baseline := &Report{Benchmarks: []Result{
		{Name: "BenchmarkKept", NsOp: 1000},
		{Name: "BenchmarkRenamed/old", NsOp: 1000},
	}}
	fresh := &Report{Benchmarks: []Result{
		{Name: "BenchmarkKept", NsOp: 1000},
		{Name: "BenchmarkRenamed/new", NsOp: 1000},
	}}
	var sb strings.Builder
	if !compare(&sb, baseline, fresh, 0.15, nil) {
		t.Fatalf("a baseline row with no fresh measurement passed:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "gone  BenchmarkRenamed/old") {
		t.Fatalf("gone row not reported:\n%s", sb.String())
	}

	// A row only the fresh run has is new, not a failure.
	sb.Reset()
	if compare(&sb, &Report{Benchmarks: baseline.Benchmarks[:1]}, fresh, 0.15, nil) {
		t.Fatalf("a new benchmark failed the check:\n%s", sb.String())
	}
}

// A benchmark that suppresses its ns/op — a socket's time is the host's —
// is held to its gated extras alone; a line with no metric at all is an error.
func TestUntimedRowsAreGatedOnExtrasOnly(t *testing.T) {
	fresh, err := parseBench(strings.NewReader(
		"BenchmarkUDPSweep \t 100\t 1.000 dials/op\t 70000 B/op\t 1500 allocs/op\n" +
			"BenchmarkOther \t 100\t 1000 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Benchmarks[1].Name != "BenchmarkUDPSweep" || fresh.Benchmarks[1].NsOp != 0 || fresh.Benchmarks[0].NsOp != 1000 {
		t.Fatalf("parsed: %+v", fresh.Benchmarks)
	}
	if _, err := parseBench(strings.NewReader("BenchmarkEmpty \t 100\t 0 ns/op\n")); err == nil {
		t.Fatal("a line with no metric was accepted")
	}
	baseline := &Report{Benchmarks: []Result{
		{Name: "BenchmarkOther", NsOp: 1000},
		// A baseline that still carries a time for it: not compared.
		{Name: "BenchmarkUDPSweep", NsOp: 900000, Extra: map[string]float64{"dials/op": 1, "B/op": 70000, "allocs/op": 1500}},
	}}
	gated := []string{"allocs/op", "B/op", "dials/op"}
	var sb strings.Builder
	if compare(&sb, baseline, fresh, 0.15, gated) {
		t.Fatalf("an unchanged untimed row failed:\n%s", sb.String())
	}
	if strings.Contains(sb.String(), "900000") {
		t.Fatalf("a missing time was compared:\n%s", sb.String())
	}
	fresh.Benchmarks[1].Extra["dials/op"] = 256 // a dial per probe again
	sb.Reset()
	if !compare(&sb, baseline, fresh, 0.15, gated) {
		t.Fatalf("a dial per probe slipped through:\n%s", sb.String())
	}
}

// TestReportRoundTrip: a written report reads back as it was, and a
// baseline that is not there reads as missing.
func TestReportRoundTrip(t *testing.T) {
	rep := &Report{Benchmarks: []Result{{Name: "BenchmarkX-8", Runs: 10, NsOp: 1234, Extra: map[string]float64{"allocs/op": 3}}}}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := writeReport(rep, path); err != nil {
		t.Fatal(err)
	}
	got, err := readReport(path)
	if err != nil || !reflect.DeepEqual(got, rep) {
		t.Fatalf("read back %+v, %v; want %+v", got, err, rep)
	}
	if _, err := readReport(filepath.Join(t.TempDir(), "missing.json")); !os.IsNotExist(err) {
		t.Fatalf("missing baseline: %v", err)
	}
}
