package netsim

import (
	"context"
	"testing"
	"time"

	"rdnsprivacy/internal/dnsclient"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/simclock"
	"rdnsprivacy/internal/telemetry"
)

// TestSetDNSTracerLiveAndConfigured covers both tracer plumbing paths: a
// tracer configured before Start is applied when the live DNS server
// comes up, and SetDNSTracer on a live network takes effect immediately.
func TestSetDNSTracerLiveAndConfigured(t *testing.T) {
	const seed = int64(21)
	n, err := NewNetwork(testNetworkConfig())
	if err != nil {
		t.Fatal(err)
	}
	dev := &Device{
		ID: 1, Owner: "brian", Kind: KindIPhone, HostName: "Brian's iPhone",
		MAC: macForID(1),
		Schedule: &ScriptedScheduler{Weekly: map[time.Weekday][]Session{
			time.Monday: {{9 * time.Hour, 17 * time.Hour}},
		}},
	}
	if err := n.AddDevice(dev, 0, Student); err != nil {
		t.Fatal(err)
	}
	devIP, _ := n.DeviceIP(dev)

	tr := telemetry.NewTracer(seed, 256)
	n.SetDNSTracer(tr) // before Start: carried into the live server

	clock := simclock.NewSimulated(epoch.Add(9*time.Hour + 30*time.Minute))
	fab := fabric.New(clock, fabric.Config{Latency: 5 * time.Millisecond})
	fab.SetTracer(tr)
	if err := n.Start(fab); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	res, err := dnsclient.NewResolver(fab,
		dnsclient.WithBind(fabric.Addr{IP: dnswire.MustIPv4("198.51.100.1"), Port: 40000}),
		dnsclient.WithServer(n.DNSAddr()),
		dnsclient.WithSeed(seed),
		dnsclient.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	lookup := func() {
		res.LookupPTR(context.Background(), devIP, func(dnsclient.Response) {})
		clock.Advance(5 * time.Second)
	}
	lookup()

	corr := telemetry.CorrID(seed, string(dnswire.ReverseName(devIP)), 1)
	counts := func() map[string]int {
		m := make(map[string]int)
		for _, sp := range tr.Snapshot() {
			if sp.Corr == corr {
				m[sp.Name]++
			}
		}
		return m
	}
	if got := counts(); got["server"] != 1 || got["attempt"] != 1 || got["hop"] != 2 {
		t.Fatalf("chain via configured tracer = %v, want attempt:1 hop:2 server:1", got)
	}

	// Detach on the live server: subsequent queries emit no server spans.
	n.SetDNSTracer(nil)
	lookup()
	if got := counts(); got["server"] != 1 {
		t.Fatalf("server spans after detach = %d, want still 1", got["server"])
	}

	// Re-attach live: tracing resumes. Each lookup is a fresh query whose
	// first attempt derives the same corr for the same name, so the
	// chain gains a second server span.
	n.SetDNSTracer(tr)
	lookup()
	if got := counts(); got["server"] != 2 {
		t.Fatalf("server spans after live re-attach = %d, want 2", got["server"])
	}
}
