package faultsim_test

// The scenario harness: full DHCP -> IPAM -> rDNS -> scan pipelines driven
// through named fault scenarios. Every scenario runs its pipeline twice
// from the same seed and requires bit-identical record sets (and, where
// fault decisions are count- or hash-based, bit-identical health
// fingerprints), leaks no goroutines, and upholds the health-report
// accounting invariants. Together they pin the end-to-end contract of the
// resilience stack: deterministic faults in, deterministic snapshots out.

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"rdnsprivacy/internal/dhcp"
	"rdnsprivacy/internal/dhcpwire"
	"rdnsprivacy/internal/dnsclient"
	"rdnsprivacy/internal/dnsserver"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/faultsim"
	"rdnsprivacy/internal/ipam"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/simclock"
	"rdnsprivacy/internal/testutil"
)

// campus is a simulated deployment: one authoritative server carrying one
// reverse zone per /24, populated by DHCP clients through an IPAM
// updater.
type campus struct {
	srv      *dnsserver.Server
	prefixes []dnswire.Prefix
	want     scanengine.RecordSet
	clients  []*dhcp.Client
	ips      []dnswire.IPv4
}

// buildCampus stands up the pipeline for the given /24s with hostsPer
// clients joined on each.
func buildCampus(t testing.TB, hostsPer int, prefixStrs ...string) *campus {
	t.Helper()
	c := &campus{srv: dnsserver.NewServer(), want: make(scanengine.RecordSet)}
	for pi, ps := range prefixStrs {
		prefix := dnswire.MustPrefix(ps)
		c.prefixes = append(c.prefixes, prefix)
		origin, err := dnswire.ReverseZoneFor24(prefix)
		if err != nil {
			t.Fatal(err)
		}
		zone := dnsserver.NewZone(dnsserver.ZoneConfig{
			Origin:    origin,
			PrimaryNS: dnswire.MustName(fmt.Sprintf("ns1.campus%d.test", pi)),
			Mbox:      dnswire.MustName(fmt.Sprintf("hostmaster.campus%d.test", pi)),
		})
		c.srv.AddZone(zone)
		updater := ipam.NewUpdater(ipam.Config{
			Policy: ipam.PolicyCarryOver,
			Suffix: dnswire.MustName(fmt.Sprintf("dyn.campus%d.test", pi)),
		})
		if err := updater.AttachZone(zone); err != nil {
			t.Fatal(err)
		}
		dhcpSrv := dhcp.NewServer(simclock.Real{}, dhcp.ServerConfig{
			ServerIP:  prefix.Nth(1),
			Pools:     []dnswire.Prefix{prefix},
			LeaseTime: time.Hour,
			Sink:      updater,
		})
		for i := 0; i < hostsPer; i++ {
			cl := dhcp.NewClient(simclock.Real{}, dhcpSrv, dhcp.ClientConfig{
				CHAddr:      dhcpwire.HardwareAddr{2, byte(pi), 0, 0, 1, byte(i + 1)},
				HostName:    fmt.Sprintf("host-%d-%d", pi, i),
				SendRelease: true,
			})
			ip, err := cl.Join()
			if err != nil {
				t.Fatal(err)
			}
			name, ok := zone.LookupPTR(dnswire.ReverseName(ip))
			if !ok {
				t.Fatalf("join of %s published no PTR", ip)
			}
			c.clients = append(c.clients, cl)
			c.ips = append(c.ips, ip)
			c.want[ip] = name
		}
	}
	return c
}

// digestRecords hashes a record set order-independently (sorted by
// address) for cross-run comparison.
func digestRecords(rs scanengine.RecordSet) uint64 {
	ips := make([]dnswire.IPv4, 0, len(rs))
	for ip := range rs {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i].Uint32() < ips[j].Uint32() })
	f := fnv.New64a()
	for _, ip := range ips {
		f.Write([]byte(ip.String()))
		f.Write([]byte{'='})
		f.Write([]byte(rs[ip]))
		f.Write([]byte{'\n'})
	}
	return f.Sum64()
}

// resilientSweep runs one sweep with the resilience layer on.
func resilientSweep(t testing.TB, sc *scanengine.Scanner, targets []dnswire.Prefix) *scanengine.Snapshot {
	t.Helper()
	snap, err := sc.Scan(context.Background(), scanengine.Request{Targets: targets})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	return snap
}

func newResilientScanner(src scanengine.Source, rcfg scanengine.ResilienceConfig, opts ...scanengine.Option) *scanengine.Scanner {
	opts = append([]scanengine.Option{
		scanengine.WithResilience(rcfg),
		scanengine.WithWorkers(4),
	}, opts...)
	return scanengine.New(src, opts...)
}

// checkHealthInvariants verifies the health report's internal accounting:
// every shard covered, probes + skipped spanning the shard when the sweep
// completed, totals equal to per-shard sums, and the degraded list equal
// to the set of degraded shards.
func checkHealthInvariants(t testing.TB, snap *scanengine.Snapshot) {
	t.Helper()
	h := snap.Health
	if h == nil {
		t.Fatal("resilient sweep returned no health report")
	}
	if len(h.Shards) != len(snap.Shards) {
		t.Fatalf("health covers %d shards, sweep has %d", len(h.Shards), len(snap.Shards))
	}
	var tot scanengine.ResilienceTotals
	degraded := map[string]bool{}
	for i, sh := range h.Shards {
		if sh.Shard != snap.Shards[i].Shard {
			t.Fatalf("health shard %d is %v, sweep shard is %v", i, sh.Shard, snap.Shards[i].Shard)
		}
		if !snap.Partial && sh.Probes+sh.Skipped != sh.Shard.NumAddresses() {
			t.Fatalf("shard %v: probes %d + skipped %d != %d addresses",
				sh.Shard, sh.Probes, sh.Skipped, sh.Shard.NumAddresses())
		}
		if sh.Skipped > 0 && !sh.Degraded {
			t.Fatalf("shard %v skipped %d addresses without degrading", sh.Shard, sh.Skipped)
		}
		tot.Attempts += sh.Attempts
		tot.Retries += sh.Retries
		tot.Throttled += sh.Throttled
		tot.Hedges += sh.Hedges
		tot.HedgeWins += sh.HedgeWins
		tot.Skipped += sh.Skipped
		for _, ev := range sh.Breaker {
			if ev.State == scanengine.BreakerOpen {
				tot.BreakerOpens++
			}
		}
		if sh.Degraded {
			degraded[sh.Shard.String()] = true
		}
	}
	if tot != h.Totals {
		t.Fatalf("health totals %+v != per-shard sums %+v", h.Totals, tot)
	}
	if len(h.Degraded) != len(degraded) {
		t.Fatalf("degraded list %v != degraded shards %v", h.Degraded, degraded)
	}
	for _, p := range h.Degraded {
		if !degraded[p.String()] {
			t.Fatalf("degraded list names %v, which no shard flagged", p)
		}
	}
	if snap.Degraded != (len(h.Degraded) > 0) {
		t.Fatalf("Snapshot.Degraded = %v with %d degraded ranges", snap.Degraded, len(h.Degraded))
	}
	if snap.Stats.Skipped != uint64(tot.Skipped) {
		t.Fatalf("Stats.Skipped = %d, health says %d", snap.Stats.Skipped, tot.Skipped)
	}
}

// gaugeSource wraps a Source, sampling the goroutine high-water mark at
// every lookup.
type gaugeSource struct {
	inner scanengine.Source
	mu    sync.Mutex
	max   int
}

func (g *gaugeSource) LookupPTR(ctx context.Context, ip dnswire.IPv4) scanengine.Result {
	n := runtime.NumGoroutine()
	g.mu.Lock()
	if n > g.max {
		g.max = n
	}
	g.mu.Unlock()
	return g.inner.LookupPTR(ctx, ip)
}

// Scenario: lossy /24. 20% of queries vanish; scan-level retries with
// deterministic backoff recover every record, twice, identically.
func TestScenarioLossyRange(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	baseline := runtime.NumGoroutine()
	var maxG int
	run := func() (*campus, *scanengine.Snapshot) {
		c := buildCampus(t, 40, "10.50.0.0/24")
		inj := faultsim.New(simclock.Real{}, 42, faultsim.Profile{Prefix: c.prefixes[0], Loss: 0.2})
		gauge := &gaugeSource{inner: &dnsclient.ServerSource{Server: inj.Wrap(c.srv)}}
		sc := newResilientScanner(gauge, scanengine.ResilienceConfig{
			Retry: scanengine.RetryPolicy{MaxAttempts: 8, BaseDelay: 50 * time.Microsecond},
			Seed:  42,
		})
		snap := resilientSweep(t, sc, c.prefixes)
		if gauge.max > maxG {
			maxG = gauge.max
		}
		return c, snap
	}
	c1, s1 := run()
	_, s2 := run()
	if d1, d2 := digestRecords(s1.Records), digestRecords(s2.Records); d1 != d2 {
		t.Fatalf("same seed, different record sets: %x vs %x", d1, d2)
	}
	if f1, f2 := s1.Health.Fingerprint(), s2.Health.Fingerprint(); f1 != f2 {
		t.Fatalf("same seed, different health fingerprints: %x vs %x", f1, f2)
	}
	if digestRecords(s1.Records) != digestRecords(c1.want) {
		t.Fatalf("lossy sweep incomplete: %d/%d records, %d errors",
			len(s1.Records), len(c1.want), s1.Stats.Errors)
	}
	if s1.Stats.Retries == 0 {
		t.Fatal("20% loss produced zero retries")
	}
	if s1.Degraded {
		t.Fatal("lossy-but-recoverable sweep degraded")
	}
	checkHealthInvariants(t, s1)
	checkHealthInvariants(t, s2)
	// Bounded concurrency: the sweep may add its 4 workers plus a merge
	// goroutine and a little scheduler slack, not a goroutine per address.
	if limit := baseline + 4 + 16; maxG > limit {
		t.Fatalf("goroutine high-water mark %d exceeds bound %d", maxG, limit)
	}
}

// Scenario: flapping authoritative server. The server dies for 20 queries
// out of every 60; a retry budget longer than the dead phase rides out
// every flap and the snapshot is still complete.
func TestScenarioFlappingAuth(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	run := func() (*campus, *scanengine.Snapshot) {
		c := buildCampus(t, 40, "10.51.0.0/24")
		inj := faultsim.New(simclock.Real{}, 7, faultsim.Profile{
			Prefix: c.prefixes[0],
			Drop:   &faultsim.Window{After: 30, For: 20, Every: 60},
		})
		src := &dnsclient.ServerSource{Server: inj.Wrap(c.srv)}
		sc := newResilientScanner(src, scanengine.ResilienceConfig{
			Retry: scanengine.RetryPolicy{MaxAttempts: 25, BaseDelay: 50 * time.Microsecond, MaxDelay: 400 * time.Microsecond},
			Seed:  7,
		})
		return c, resilientSweep(t, sc, c.prefixes)
	}
	c1, s1 := run()
	_, s2 := run()
	if digestRecords(s1.Records) != digestRecords(s2.Records) ||
		s1.Health.Fingerprint() != s2.Health.Fingerprint() {
		t.Fatal("same seed, different outcomes across runs")
	}
	if digestRecords(s1.Records) != digestRecords(c1.want) {
		t.Fatalf("flapping sweep incomplete: %d/%d records, %d errors",
			len(s1.Records), len(c1.want), s1.Stats.Errors)
	}
	if s1.Stats.Retries < 20 {
		t.Fatalf("retries = %d; riding out flaps should have cost at least one dead phase", s1.Stats.Retries)
	}
	checkHealthInvariants(t, s1)
}

// Scenario: SERVFAIL storm. A 40-query burst of server failures trips the
// per-shard breaker, which cycles open/half-open until the storm passes,
// then closes; the shard finishes without degrading and the damage is a
// bounded, deterministic error count.
func TestScenarioServFailStorm(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	run := func() *scanengine.Snapshot {
		c := buildCampus(t, 40, "10.52.0.0/24")
		inj := faultsim.New(simclock.Real{}, 11, faultsim.Profile{
			Prefix:   c.prefixes[0],
			ServFail: &faultsim.Window{After: 20, For: 40},
		})
		src := &dnsclient.ServerSource{Server: inj.Wrap(c.srv)}
		sc := newResilientScanner(src, scanengine.ResilienceConfig{
			Retry:   scanengine.RetryPolicy{MaxAttempts: 2},
			Breaker: scanengine.BreakerConfig{Threshold: 4, OpenFor: time.Millisecond, MaxOpens: 60},
			Seed:    11,
		})
		return resilientSweep(t, sc, c.prefixes)
	}
	s1, s2 := run(), run()
	if digestRecords(s1.Records) != digestRecords(s2.Records) ||
		s1.Health.Fingerprint() != s2.Health.Fingerprint() {
		t.Fatal("same seed, different outcomes across runs")
	}
	h := s1.Health.Shards[0]
	if s1.Health.Totals.BreakerOpens == 0 {
		t.Fatal("a 40-query SERVFAIL storm never opened the breaker")
	}
	if len(h.Breaker) == 0 || h.Breaker[len(h.Breaker)-1].State != scanengine.BreakerClosed {
		t.Fatalf("breaker did not close after the storm: %v", h.Breaker)
	}
	if s1.Degraded {
		t.Fatal("recoverable storm degraded the shard")
	}
	if s1.Stats.Errors == 0 || s1.Stats.Errors > 40 {
		t.Fatalf("storm errors = %d, want bounded by the 40-query window", s1.Stats.Errors)
	}
	checkHealthInvariants(t, s1)
}

// Scenario: slow-start against a rate limiter. The server REFUSEs
// above-budget traffic; adaptive pacing backs off until probes fit the
// budget and the sweep still recovers every record. The limiter is
// wall-clock, so only the record set (not the fault tally) is compared
// across runs.
func TestScenarioSlowStartRateLimiter(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	run := func() (*campus, *scanengine.Snapshot) {
		c := buildCampus(t, 40, "10.53.0.0/24")
		inj := faultsim.New(simclock.Real{}, 5, faultsim.Profile{
			Prefix: c.prefixes[0],
			Limit:  &faultsim.RateLimit{QPS: 2000, Burst: 30, Refuse: true},
		})
		src := &dnsclient.ServerSource{Server: inj.Wrap(c.srv)}
		sc := newResilientScanner(src, scanengine.ResilienceConfig{
			Retry:    scanengine.RetryPolicy{MaxAttempts: 8},
			Throttle: scanengine.ThrottleConfig{InitialDelay: time.Millisecond, MaxDelay: 16 * time.Millisecond},
			Seed:     5,
		})
		return c, resilientSweep(t, sc, c.prefixes)
	}
	c1, s1 := run()
	_, s2 := run()
	if digestRecords(s1.Records) != digestRecords(s2.Records) {
		t.Fatal("rate-limited sweeps disagree on the record set")
	}
	if digestRecords(s1.Records) != digestRecords(c1.want) {
		t.Fatalf("rate-limited sweep incomplete: %d/%d records, %d errors",
			len(s1.Records), len(c1.want), s1.Stats.Errors)
	}
	if s1.Health.Totals.Retries == 0 {
		t.Fatal("burst against a burst-30 limiter caused no retries")
	}
	checkHealthInvariants(t, s1)
	checkHealthInvariants(t, s2)
}

// Scenario: mid-sweep server restart. The server drops everything for a
// 50-query outage; damage is bounded to the probes whose whole retry
// budget fell inside the window, and is identical across runs.
func TestScenarioMidSweepRestart(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	run := func() (*campus, *scanengine.Snapshot) {
		c := buildCampus(t, 40, "10.54.0.0/24")
		inj := faultsim.New(simclock.Real{}, 13, faultsim.Profile{
			Prefix: c.prefixes[0],
			Drop:   &faultsim.Window{After: 100, For: 50},
		})
		src := &dnsclient.ServerSource{Server: inj.Wrap(c.srv)}
		sc := newResilientScanner(src, scanengine.ResilienceConfig{
			Retry: scanengine.RetryPolicy{MaxAttempts: 8, BaseDelay: 50 * time.Microsecond},
			Seed:  13,
		})
		return c, resilientSweep(t, sc, c.prefixes)
	}
	c1, s1 := run()
	_, s2 := run()
	if digestRecords(s1.Records) != digestRecords(s2.Records) ||
		s1.Health.Fingerprint() != s2.Health.Fingerprint() {
		t.Fatal("same seed, different outcomes across runs")
	}
	if s1.Stats.Errors == 0 || s1.Stats.Errors > 10 {
		t.Fatalf("restart errors = %d, want 1..10 (a 50-query outage over 8-attempt probes)", s1.Stats.Errors)
	}
	if got, want := len(s1.Records)+missingFrom(c1.want, s1.Records), len(c1.want); got != want {
		t.Fatalf("record accounting broken: %d found + missing != %d joined", got, want)
	}
	if s1.Degraded {
		t.Fatal("bounded restart outage degraded the shard")
	}
	checkHealthInvariants(t, s1)
}

func missingFrom(want, got scanengine.RecordSet) int {
	n := 0
	for ip := range want {
		if _, ok := got[ip]; !ok {
			n++
		}
	}
	return n
}

// switchableHandler swaps the handler chain between sweeps.
type switchableHandler struct {
	mu sync.Mutex
	h  faultsim.Handler
}

func (s *switchableHandler) set(h faultsim.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *switchableHandler) HandleQuery(query []byte) []byte {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	return h.HandleQuery(query)
}

// Scenario: correlated shard outage with graceful degradation. Two of
// four /24s go completely dark between sweeps; their breakers exhaust the
// open budget, the shards degrade and are skipped, the healthy shards
// complete, and removal inference ignores the dark ranges — a genuinely
// released host in a healthy range is still reported removed, while the
// dark ranges produce no phantom removals.
func TestScenarioCorrelatedShardOutage(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	prefixes := []string{"10.55.0.0/24", "10.55.1.0/24", "10.55.2.0/24", "10.55.3.0/24"}
	c1, s1 := runShardOutage(t)
	_, s2 := runShardOutage(t)
	if digestRecords(s1.Records) != digestRecords(s2.Records) ||
		s1.Health.Fingerprint() != s2.Health.Fingerprint() {
		t.Fatal("same seed, different outcomes across runs")
	}
	if !s1.Degraded {
		t.Fatal("total outage on two shards did not degrade the sweep")
	}
	dark := map[string]bool{}
	for _, p := range s1.Health.Degraded {
		dark[p.String()] = true
	}
	if len(dark) != 2 || !dark[prefixes[1]] || !dark[prefixes[2]] {
		t.Fatalf("degraded ranges %v, want exactly the dark shards %v", s1.Health.Degraded, prefixes[1:3])
	}
	var removed []dnswire.IPv4
	for _, ch := range s1.Changes {
		if ch.Kind != scanengine.RecordRemoved {
			continue
		}
		removed = append(removed, ch.IP)
		if dnswire.MustPrefix(prefixes[1]).Contains(ch.IP) || dnswire.MustPrefix(prefixes[2]).Contains(ch.IP) {
			t.Fatalf("phantom removal %s inside a degraded range", ch.IP)
		}
	}
	if len(removed) != 1 || removed[0] != c1.ips[0] {
		t.Fatalf("removals = %v, want exactly the released host %s", removed, c1.ips[0])
	}
	if s1.Stats.Skipped == 0 {
		t.Fatal("degraded shards skipped nothing")
	}
	checkHealthInvariants(t, s1)
}

// Scenario: hedging wins the tail. 8% of queries hit a 60ms latency
// spike; hedged lookups fire after 2ms and beat the stragglers. Hedge
// outcomes are timing-dependent, but with latency-only faults the record
// set and the health fingerprint stay deterministic.
func TestScenarioHedgingWinsTail(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	run := func() (*campus, *scanengine.Snapshot) {
		c := buildCampus(t, 30, "10.56.0.0/24")
		inj := faultsim.New(simclock.Real{}, 23, faultsim.Profile{
			Prefix:       c.prefixes[0],
			SpikeRate:    0.08,
			SpikeLatency: 60 * time.Millisecond,
		})
		src := &dnsclient.ServerSource{Server: inj.Wrap(c.srv)}
		sc := newResilientScanner(src, scanengine.ResilienceConfig{
			Hedge: scanengine.HedgeConfig{Delay: 2 * time.Millisecond},
			Seed:  23,
		})
		return c, resilientSweep(t, sc, c.prefixes)
	}
	c1, s1 := run()
	_, s2 := run()
	if digestRecords(s1.Records) != digestRecords(s2.Records) ||
		s1.Health.Fingerprint() != s2.Health.Fingerprint() {
		t.Fatal("latency-only faults must not perturb the deterministic outcome")
	}
	if digestRecords(s1.Records) != digestRecords(c1.want) {
		t.Fatalf("hedged sweep incomplete: %d/%d", len(s1.Records), len(c1.want))
	}
	if s1.Health.Totals.HedgeWins == 0 {
		t.Fatalf("no hedge ever won against 60ms spikes (hedges launched: %d)", s1.Health.Totals.Hedges)
	}
	checkHealthInvariants(t, s1)
}

// Scenario: breaker recovery arc. A single 12-query SERVFAIL burst walks
// the breaker through closed -> open -> half-open probes -> closed, with
// the transition history recorded by probe index and identical across
// runs.
func TestScenarioBreakerRecovery(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	run := func() *scanengine.Snapshot {
		c := buildCampus(t, 40, "10.57.0.0/24")
		inj := faultsim.New(simclock.Real{}, 29, faultsim.Profile{
			Prefix:   c.prefixes[0],
			ServFail: &faultsim.Window{After: 10, For: 12},
		})
		src := &dnsclient.ServerSource{Server: inj.Wrap(c.srv)}
		sc := newResilientScanner(src, scanengine.ResilienceConfig{
			Retry:   scanengine.RetryPolicy{MaxAttempts: 1},
			Breaker: scanengine.BreakerConfig{Threshold: 3, OpenFor: time.Millisecond, MaxOpens: 30},
			Seed:    29,
		})
		return resilientSweep(t, sc, c.prefixes)
	}
	s1, s2 := run(), run()
	if s1.Health.Fingerprint() != s2.Health.Fingerprint() {
		t.Fatal("same seed, different breaker histories")
	}
	h := s1.Health.Shards[0]
	if len(h.Breaker) < 3 {
		t.Fatalf("breaker history too short: %v", h.Breaker)
	}
	if h.Breaker[0].State != scanengine.BreakerOpen {
		t.Fatalf("first transition %v, want open", h.Breaker[0])
	}
	sawHalfOpen := false
	for _, ev := range h.Breaker {
		if ev.State == scanengine.BreakerHalfOpen {
			sawHalfOpen = true
		}
	}
	if !sawHalfOpen {
		t.Fatalf("no half-open probe in history: %v", h.Breaker)
	}
	if last := h.Breaker[len(h.Breaker)-1]; last.State != scanengine.BreakerClosed {
		t.Fatalf("breaker ended %v, want closed", last)
	}
	if h.Degraded {
		t.Fatal("recoverable burst degraded the shard")
	}
	for i := 1; i < len(h.Breaker); i++ {
		if h.Breaker[i].AtProbe < h.Breaker[i-1].AtProbe {
			t.Fatalf("breaker history out of probe order: %v", h.Breaker)
		}
	}
	checkHealthInvariants(t, s1)
}
