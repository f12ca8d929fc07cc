package scanengine

import (
	"context"
	"testing"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/telemetry"
)

// corrSource answers every probe and stamps it with a deterministic
// correlation ID, like dnsclient.ServerSource does with a tracer.
type corrSource struct{ seed int64 }

func (s corrSource) LookupPTR(_ context.Context, ip dnswire.IPv4) Result {
	return Result{
		IP:    ip,
		Name:  dnswire.MustName("host.example.org"),
		Found: true,
		Corr:  telemetry.CorrID(s.seed, ip.String(), 1),
	}
}

// TestResultsCarryCorr checks a probe's correlation ID reaches the result
// func untouched — the handle that joins a result to its client, fabric
// and server spans — and that the shard span does not repeat it: the span
// summarizes the shard, it does not list its probes.
func TestResultsCarryCorr(t *testing.T) {
	tr := telemetry.NewTracer(3, 64)
	p := dnswire.MustPrefix("10.71.0.0/30")
	got := make(map[uint64]bool)
	sc := New(corrSource{seed: 3}, WithWorkers(2), WithTracer(tr),
		WithResultFunc(func(res Result) { got[res.Corr] = true }))
	snap, err := sc.Scan(context.Background(), Request{Targets: []dnswire.Prefix{p}})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Stats.Probes != 4 {
		t.Fatalf("probes = %d, want 4", snap.Stats.Probes)
	}
	for i := 0; i < p.NumAddresses(); i++ {
		if c := telemetry.CorrID(3, p.Nth(i).String(), 1); !got[c] {
			t.Fatalf("no result carried corr %016x", c)
		}
	}
	if len(got) != 4 {
		t.Fatalf("results carried %d distinct corr IDs, want 4", len(got))
	}
	for _, sp := range tr.Snapshot() {
		for _, ev := range sp.Events {
			if ev.Kind != TraceFound && ev.Kind != TraceAbsent && ev.Kind != TraceErrors && ev.Kind != TraceCached {
				t.Fatalf("shard span carries a per-probe event: %+v", ev)
			}
		}
	}
}
