package dnsclient

import (
	"context"
	"testing"
	"time"

	"rdnsprivacy/internal/dnsserver"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/faultsim"
	"rdnsprivacy/internal/telemetry"
)

// chainFor buckets a tracer's spans by name for one correlation ID.
func chainFor(tr *telemetry.Tracer, corr uint64) map[string]int {
	counts := make(map[string]int)
	for _, sp := range tr.Snapshot() {
		if sp.Corr == corr {
			counts[sp.Name]++
		}
	}
	return counts
}

func TestResolverTracerEmitsCausalChain(t *testing.T) {
	const seed = int64(77)
	env := newEnv(t, fabric.Config{Latency: 5 * time.Millisecond}, WithSeed(seed))
	tr := telemetry.NewTracer(seed, 256)
	env.res.cfg.Tracer = tr
	env.fab.SetTracer(tr)
	env.server.SetTracer(tr)

	ip := dnswire.MustIPv4("192.0.2.10")
	env.zone.SetPTR(dnswire.ReverseName(ip), dnswire.MustName("brians-iphone.dyn.example.edu"))

	var got *Response
	env.res.LookupPTR(context.Background(), ip, func(r Response) { got = &r })
	env.clock.Advance(time.Second)
	if got == nil || got.Outcome != OutcomeSuccess {
		t.Fatalf("lookup = %+v, want success", got)
	}

	corr := telemetry.CorrID(seed, string(dnswire.ReverseName(ip)), 1)
	chain := chainFor(tr, corr)
	if chain["attempt"] != 1 || chain["hop"] != 2 || chain["server"] != 1 {
		t.Fatalf("causal chain = %v, want attempt:1 hop:2 server:1", chain)
	}

	// The attempt span must end with the lookup outcome.
	for _, sp := range tr.Snapshot() {
		if sp.Corr == corr && sp.Name == "attempt" {
			last := sp.Events[len(sp.Events)-1]
			if last.Kind != "client" || last.Code != uint64(OutcomeSuccess) {
				t.Fatalf("attempt terminal event = %+v, want client/NOERROR", last)
			}
		}
	}
}

func TestResolverTracerPerAttemptCorr(t *testing.T) {
	const seed = int64(3)
	// Server drops everything: each attempt times out and retries draw
	// fresh correlation IDs.
	env := newEnv(t, fabric.Config{}, WithSeed(seed), WithTimeout(100*time.Millisecond), WithRetries(2))
	env.server.SetInjector(faultsim.New(nil, 1, faultsim.Profile{Loss: 1.0}))
	tr := telemetry.NewTracer(seed, 256)
	env.res.cfg.Tracer = tr

	ip := dnswire.MustIPv4("192.0.2.20")
	var got *Response
	env.res.LookupPTR(context.Background(), ip, func(r Response) { got = &r })
	env.clock.Advance(time.Second)
	if got == nil || got.Outcome != OutcomeTimeout || got.Attempts != 3 {
		t.Fatalf("lookup = %+v, want timeout after 3 attempts", got)
	}

	name := string(dnswire.ReverseName(ip))
	seen := make(map[uint64]bool)
	for attempt := 1; attempt <= 3; attempt++ {
		corr := telemetry.CorrID(seed, name, attempt)
		chain := chainFor(tr, corr)
		if chain["attempt"] != 1 {
			t.Fatalf("attempt %d: chain = %v, want one attempt span", attempt, chain)
		}
		if seen[corr] {
			t.Fatalf("attempt %d reused correlation ID %016x", attempt, corr)
		}
		seen[corr] = true
	}
	// All three attempt spans must have timed out.
	for _, sp := range tr.Snapshot() {
		if sp.Name != "attempt" {
			continue
		}
		last := sp.Events[len(sp.Events)-1]
		if last.Kind != "client" || last.Code != uint64(OutcomeTimeout) {
			t.Fatalf("attempt span terminal event = %+v, want client/TIMEOUT", last)
		}
	}
}

func TestServerSourceCorrelation(t *testing.T) {
	const seed = int64(9)
	srv := dnsserver.NewServer()
	zone := dnsserver.NewZone(dnsserver.ZoneConfig{
		Origin:    dnswire.MustName("2.0.192.in-addr.arpa"),
		PrimaryNS: dnswire.MustName("ns1.example.edu"),
		Mbox:      dnswire.MustName("hostmaster.example.edu"),
	})
	srv.AddZone(zone)
	ip := dnswire.MustIPv4("192.0.2.10")
	zone.SetPTR(dnswire.ReverseName(ip), dnswire.MustName("host.example.edu"))

	tr := telemetry.NewTracer(seed, 64)
	srv.SetTracer(tr)
	src := &ServerSource{Server: srv, Tracer: tr, Seed: seed}

	res := src.LookupPTR(context.Background(), ip)
	if !res.Found {
		t.Fatalf("result = %+v, want found", res)
	}
	wantCorr := telemetry.CorrID(seed, string(dnswire.ReverseName(ip)), 1)
	if res.Corr != wantCorr {
		t.Fatalf("result corr = %016x, want %016x", res.Corr, wantCorr)
	}
	chain := chainFor(tr, wantCorr)
	if chain["attempt"] != 1 || chain["server"] != 1 {
		t.Fatalf("in-process chain = %v, want attempt:1 server:1", chain)
	}

	// Without a tracer the source must not correlate.
	plain := &ServerSource{Server: srv}
	if res := plain.LookupPTR(context.Background(), ip); res.Corr != 0 {
		t.Fatalf("untraced source set corr %016x", res.Corr)
	}
}
