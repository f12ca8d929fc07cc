package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rdnsprivacy/internal/core"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/obs"
	"rdnsprivacy/internal/privleak"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
)

// TestTraceSummaryCountsEveryProbe dumps the span log of a one-shard /18
// sweep — 16384 probes, twice what a span can hold as events — and checks
// the -trace summary reports the sweep's own tally, read from the counts
// a shard span closes with.
func TestTraceSummaryCountsEveryProbe(t *testing.T) {
	tracer := telemetry.NewTracer(9, 0)
	src := scanengine.SourceFunc(func(_ context.Context, ip dnswire.IPv4) scanengine.Result {
		return scanengine.Result{IP: ip, Name: "h.example.org.", Found: ip[3] == 7}
	})
	snap, err := scanengine.New(src, scanengine.WithTracer(tracer)).Scan(context.Background(),
		scanengine.Request{Targets: []dnswire.Prefix{dnswire.MustPrefix("10.64.0.0/18")}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out bytes.Buffer
	if err := runTraceSummary(path, &out); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("probes: %d total — %d found, %d absent, 0 errors, 0 cached\n",
		snap.Stats.Probes, snap.Stats.Found, snap.Stats.Absent)
	if snap.Stats.Probes != 16384 || !strings.Contains(out.String(), want) ||
		!strings.Contains(out.String(), "(0 dropped past the per-span cap)") {
		t.Fatalf("summary of a %d-probe sweep lacks %q:\n%s", snap.Stats.Probes, want, out.String())
	}
}

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// TestTraceSummaryStitchesChains runs a micro supplemental measurement
// with the study tracer attached, dumps its span log the way
// `experiments -trace-out` does, and checks the -trace summary stitches
// complete client→fabric→server chains out of it.
func TestTraceSummaryStitchesChains(t *testing.T) {
	tracer := telemetry.NewTracer(9, 0)
	cfg := core.Config{
		Seed: 9,
		Universe: netsim.UniverseConfig{
			FillerSlash24s:        120,
			LeakyNetworks:         10,
			NonLeakyDynamic:       1,
			PeoplePerDynamicBlock: 6,
		},
		LeakThresholds:    privleak.Config{MinUniqueNames: 4, MinRatio: 0.01},
		SupplementalStart: date(2021, time.November, 22),
		SupplementalEnd:   date(2021, time.November, 24),
		Tracer:            tracer,
	}
	study, err := core.NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	study.Supplemental()
	if tracer.Len() == 0 {
		t.Fatal("supplemental run emitted no spans")
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.WriteJSONL(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out bytes.Buffer
	if err := runTraceSummary(path, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "causal chains:") {
		t.Fatalf("summary lacks chain section:\n%s", got)
	}
	if strings.Contains(got, "(0 complete") {
		t.Fatalf("no complete client→fabric→server chain stitched:\n%s", got)
	}
	if !strings.Contains(got, "attempt#") || !strings.Contains(got, "hop ") ||
		!strings.Contains(got, "server ") {
		t.Fatalf("rendered chains missing layers:\n%s", got)
	}
}

func TestObsSummary(t *testing.T) {
	frames := []obs.Frame{
		{Index: 0, Date: date(2021, time.January, 4), Probes: 1000, Found: 900,
			Deltas: map[string]uint64{"scan_probes_total": 1000}},
		{Index: 1, Date: date(2021, time.January, 5), Probes: 900, Skipped: 100,
			Errors: 90, BreakerOpens: 2,
			Deltas: map[string]uint64{"scan_probes_total": 900}},
	}
	path := filepath.Join(t.TempDir(), "frames.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteFrames(f, frames); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out bytes.Buffer
	if err := runObsSummary(path, 42, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"obs: 2 frames (2021-01-04 .. 2021-01-05)",
		"campaign: 1900 probes, 90 errors",
		"frame 1: error_rate",
		"EXCEEDS",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("summary missing %q:\n%s", want, got)
		}
	}

	// Empty and missing dumps are handled gracefully.
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runObsSummary(empty, 42, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no frames") {
		t.Fatalf("empty dump summary = %q", out.String())
	}
	if err := runObsSummary(filepath.Join(t.TempDir(), "nope.jsonl"), 42, &out); err == nil {
		t.Fatal("missing file accepted")
	}
}
