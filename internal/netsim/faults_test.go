package netsim

import (
	"context"
	"testing"
	"time"

	"rdnsprivacy/internal/dnsclient"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/faultsim"
	"rdnsprivacy/internal/simclock"
	"rdnsprivacy/internal/testutil"
)

// TestLiveFaultsAreTheShippedDraws drives the seam the Study's faults take:
// two live networks on one fault plan with partial rates, each asked the
// same PTR names over the fabric by a resolver that retransmits what is
// dropped. Every lookup must end where the shipped draw says, attempt by
// attempt — the first attempt n not dropped answers SERVFAIL exactly when
// testutil.ShippedFailureDecision(seed, name, n) says so, and a name
// dropped on every attempt times out. n counts the name's queries at one
// server only: were the networks' counters shared, the second server's
// attempts would draw later verdicts.
func TestLiveFaultsAreTheShippedDraws(t *testing.T) {
	const seed, loss, servFail, retries = 5, 0.3, 0.3, 2
	plan := faultsim.Plan{Seed: seed, Profiles: []faultsim.Profile{{Loss: loss, ServFailRate: servFail}}}
	cfgB := testNetworkConfig()
	cfgB.Name, cfgB.Suffix = "Academic-U", dnswire.MustName("campus-u.example.edu")
	cfgB.Announced = dnswire.MustPrefix("10.60.0.0/16")
	cfgB.Blocks = []Block{{Kind: BlockStaticInfra, Prefix: dnswire.MustPrefix("10.60.0.0/24"), SubLabel: "net"}}
	clock := simclock.NewSimulated(time.Date(2021, 11, 1, 8, 0, 0, 0, time.UTC))
	fab := fabric.New(clock, fabric.Config{Latency: time.Millisecond})
	var ips []dnswire.IPv4
	for i := 1; i <= 40; i++ {
		ips = append(ips, dnswire.MustPrefix("10.50.1.0/24").Nth(i), dnswire.MustPrefix("10.60.0.0/24").Nth(i))
	}

	type result struct {
		server int
		resp   dnsclient.Response
	}
	var results []result
	for s, cfg := range []Config{testNetworkConfig(), cfgB} {
		n, err := NewNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n.SetDNSFailure(plan)
		if err := n.Start(fab); err != nil {
			t.Fatal(err)
		}
		defer n.Stop()
		res, err := dnsclient.NewResolver(fab,
			dnsclient.WithBind(fabric.Addr{IP: dnswire.MustIPv4("198.51.100.9"), Port: uint16(4000 + s)}),
			dnsclient.WithServer(n.DNSAddr()),
			dnsclient.WithTimeout(time.Second), dnsclient.WithRetries(retries))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Close()
		for _, ip := range ips {
			res.LookupPTR(context.Background(), ip, func(r dnsclient.Response) {
				results = append(results, result{s, r})
			})
		}
	}
	clock.Advance(time.Minute)

	if len(results) != 2*len(ips) {
		t.Fatalf("%d lookups completed, want %d", len(results), 2*len(ips))
	}
	retried, servFails, timeouts := 0, 0, 0
	for _, r := range results {
		name := r.resp.Question.Name
		wantAttempts, wantServFail, wantTimeout := retries+1, false, true
		for n := uint64(0); n <= retries; n++ {
			if drop, sf := testutil.ShippedFailureDecision(seed, loss, servFail, name, n); !drop {
				wantAttempts, wantServFail, wantTimeout = int(n)+1, sf, false
				break
			}
		}
		if r.resp.Attempts != wantAttempts ||
			(r.resp.Outcome == dnsclient.OutcomeServFail) != wantServFail ||
			(r.resp.Outcome == dnsclient.OutcomeTimeout) != wantTimeout {
			t.Errorf("server %d, %s: %v after %d attempts, want %d attempts (servfail %v)",
				r.server, name, r.resp.Outcome, r.resp.Attempts, wantAttempts, wantServFail)
		}
		if r.resp.Attempts > 1 {
			retried++
		}
		if wantServFail {
			servFails++
		}
		if wantTimeout {
			timeouts++
		}
	}
	if retried == 0 || servFails == 0 {
		t.Fatalf("%d retransmitted lookups, %d SERVFAILs: the draw did not exercise the seam", retried, servFails)
	}
	t.Logf("%d lookups: %d retransmitted, %d SERVFAIL, %d timed out", len(results), retried, servFails, timeouts)
}
