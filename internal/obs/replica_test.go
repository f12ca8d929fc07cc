package obs

import (
	"testing"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/scanengine"
)

func TestFrameFromSnapshotHealth(t *testing.T) {
	degraded := dnswire.MustPrefix("10.9.0.0/24")
	snap := &scanengine.Snapshot{
		Records: scanengine.RecordSet{
			dnswire.MustIPv4("10.0.0.1"): dnswire.MustName("a.example.org"),
		},
		Changes: []scanengine.Change{
			{Kind: scanengine.RecordAdded, IP: dnswire.MustIPv4("10.0.0.1")},
			{Kind: scanengine.RecordRemoved, IP: dnswire.MustIPv4("10.0.0.2")},
			{Kind: scanengine.RecordChanged, IP: dnswire.MustIPv4("10.0.0.3")},
		},
		Degraded: true,
		Health: &scanengine.HealthReport{
			Degraded: []dnswire.Prefix{degraded},
			Totals:   scanengine.ResilienceTotals{BreakerOpens: 5},
		},
	}
	f := frameFromSnapshot(7, day(7), snap)
	if f.Added != 1 || f.Removed != 1 || f.Changed != 1 {
		t.Fatalf("change tallies: %+v", f)
	}
	if !f.Degraded || len(f.DegradedPrefixes) != 1 || f.DegradedPrefixes[0] != degraded.String() {
		t.Fatalf("degraded prefixes: %+v", f)
	}
	if f.BreakerOpens != 5 || f.HealthFingerprint == "" {
		t.Fatalf("health summary: %+v", f)
	}
}

func TestLoadRulesReplicaLag(t *testing.T) {
	// Positive limit bounds the byte lag.
	bounded := LoadRules{MaxErrorRate: -1, MaxShedRate: -1, MaxReplicaLagBytes: 100}
	rep := bounded.EvaluateLoad([]LoadSample{
		{Label: "replica-ok", Requests: 10, BytesBehind: 100},
		{Label: "replica-lagging", Requests: 10, BytesBehind: 101},
	})
	if rep.OK || rep.ViolatingSamples != 1 {
		t.Fatalf("bounded lag report: %+v", rep)
	}
	if v := rep.Verdicts[1]; v.OK || v.Violations[0].Rule != "replica_lag_bytes" {
		t.Fatalf("lagging verdict: %+v", v)
	}
	// Negative limit demands full catch-up: any lag violates.
	strict := LoadRules{MaxErrorRate: -1, MaxShedRate: -1, MaxReplicaLagBytes: -1}
	rep = strict.EvaluateLoad([]LoadSample{
		{Label: "caught-up", Requests: 10, BytesBehind: 0},
		{Label: "one-byte", Requests: 10, BytesBehind: 1},
	})
	if rep.Verdicts[0].OK != true || rep.Verdicts[1].OK != false {
		t.Fatalf("strict lag report: %+v", rep)
	}
	// Zero disables the rule — primaries have no lag to judge.
	off := LoadRules{MaxErrorRate: -1, MaxShedRate: -1}
	if rep := off.EvaluateLoad([]LoadSample{{Label: "x", Requests: 10, BytesBehind: 1 << 30}}); !rep.OK {
		t.Fatalf("disabled lag rule violated: %+v", rep.Verdicts)
	}
}
