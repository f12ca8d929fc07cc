package faultsim_test

import (
	"bytes"
	"testing"
	"time"

	"rdnsprivacy/internal/dnsclient"
	"rdnsprivacy/internal/faultsim"
	"rdnsprivacy/internal/obs"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/simclock"
	"rdnsprivacy/internal/telemetry"
)

// ledgerGolden pins what a seeded resilient sweep reports about itself —
// HealthReport.Fingerprint and the obs frame JSONL, which carries Stats,
// the end-of-sweep scan_* counter values as deltas, and their digest —
// to the values the engine produced when it kept them as parallel
// per-shard ledgers (recorded at the commit before one row replaced
// them). Every view is now derived from that row, so these bytes moving
// means a derivation changed, not that two ledgers drifted.
type ledgerGolden struct {
	fingerprint uint64
	frames      string
}

// frameJSONL captures one frame per snapshot at fixed dates.
func frameJSONL(t *testing.T, reg *telemetry.Registry, snaps ...*scanengine.Snapshot) string {
	t.Helper()
	rec := obs.NewRecorder(reg)
	day := time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC)
	for i, s := range snaps {
		rec.CaptureFrame(i, day.AddDate(0, 0, i), s)
	}
	var buf bytes.Buffer
	if err := obs.WriteFrames(&buf, rec.Frames()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// runShardOutage is the CorrelatedShardOutage scenario: a clean baseline
// sweep of four /24s, then two of them go dark, degrade and are skipped
// while one host in a healthy range leaves. It returns the second sweep.
func runShardOutage(t *testing.T, opts ...scanengine.Option) (*campus, *scanengine.Snapshot) {
	t.Helper()
	c := buildCampus(t, 20, "10.55.0.0/24", "10.55.1.0/24", "10.55.2.0/24", "10.55.3.0/24")
	sw := &switchableHandler{h: c.srv}
	sc := newResilientScanner(&dnsclient.ServerSource{Server: sw}, scanengine.ResilienceConfig{
		Retry:   scanengine.RetryPolicy{MaxAttempts: 2},
		Breaker: scanengine.BreakerConfig{Threshold: 3, OpenFor: time.Millisecond, MaxOpens: 2},
		Seed:    17,
	}, opts...)
	// Sweep 1: clean baseline.
	base := resilientSweep(t, sc, c.prefixes)
	if digestRecords(base.Records) != digestRecords(c.want) {
		t.Fatalf("clean baseline incomplete: %d/%d", len(base.Records), len(c.want))
	}
	// Outage on prefixes 1 and 2; one genuine release in prefix 0.
	inj := faultsim.New(simclock.Real{}, 17,
		faultsim.Profile{Prefix: c.prefixes[1], Drop: &faultsim.Window{For: 1 << 30}},
		faultsim.Profile{Prefix: c.prefixes[2], Drop: &faultsim.Window{For: 1 << 30}},
	)
	sw.set(inj.Wrap(c.srv))
	if err := c.clients[0].Leave(); err != nil {
		t.Fatal(err)
	}
	return c, resilientSweep(t, sc, c.prefixes)
}

func TestScenarioLedgerGolden(t *testing.T) {
	recovery := runBreakerRecoveryWithTelemetry(t)
	outageReg := telemetry.NewRegistry()
	_, outage := runShardOutage(t, scanengine.WithTelemetry(outageReg))
	for _, c := range []struct {
		name string
		snap *scanengine.Snapshot
		reg  *telemetry.Registry
		want ledgerGolden
	}{
		{"breaker-recovery", recovery.snap, recovery.reg, ledgerGolden{
			0x6c08a0f8f7010453,
			`{"index":0,"date":"2021-11-01T00:00:00Z","metrics_digest":"c0a37226f26747cf","deltas":{"scan_absent_total":216,"scan_attempts_total":256,"scan_breaker_closes_total":1,"scan_breaker_halfopens_total":10,"scan_breaker_opens_total":10,"scan_errors_total":12,"scan_found_total":28,"scan_probes_total":256,"scan_queries_total":256,"scan_sweeps_total":1},"records":28,"probes":256,"found":28,"absent":216,"errors":12,"added":0,"removed":0,"changed":0,"breaker_opens":10,"health_fingerprint":"6c08a0f8f7010453"}` + "\n",
		}},
		// The frame covers both of the scenario's sweeps: the counters are
		// cumulative and one frame is captured. The parent listed the two
		// degraded prefixes in the order their shards happened to close;
		// they are in plan order now.
		{"shard-outage", outage, outageReg, ledgerGolden{
			0x19f908fa7e8ef97a,
			`{"index":0,"date":"2021-11-01T00:00:00Z","metrics_digest":"a39b3868d71f3685","deltas":{"scan_absent_total":1417,"scan_attempts_total":1552,"scan_breaker_halfopens_total":4,"scan_breaker_opens_total":6,"scan_errors_total":10,"scan_found_total":119,"scan_probes_total":1546,"scan_queries_total":1546,"scan_removals_excluded_total":40,"scan_retries_total":6,"scan_shards_degraded_total":2,"scan_skipped_total":502,"scan_sweeps_total":2},"records":39,"probes":522,"found":39,"absent":473,"errors":10,"retries":6,"skipped":502,"added":0,"removed":1,"changed":0,"degraded":true,"degraded_prefixes":["10.55.1.0/24","10.55.2.0/24"],"breaker_opens":6,"health_fingerprint":"19f908fa7e8ef97a"}` + "\n",
		}},
	} {
		got := ledgerGolden{c.snap.Health.Fingerprint(), frameJSONL(t, c.reg, c.snap)}
		if got != c.want {
			t.Errorf("%s: fingerprint %#016x frames %s\nwant %#016x %s",
				c.name, got.fingerprint, got.frames, c.want.fingerprint, c.want.frames)
		}
	}
}
