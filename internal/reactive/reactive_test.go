package reactive

import (
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/ipam"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/simclock"
)

func TestBackoffWalksTable2(t *testing.T) {
	b := NewBackoff(PaperBackoff())
	var got []time.Duration
	for i := 0; i < 26; i++ {
		d, ok := b.Next()
		if !ok {
			t.Fatalf("schedule ran out at step %d", i)
		}
		got = append(got, d)
	}
	want := []time.Duration{}
	for i := 0; i < 12; i++ {
		want = append(want, 5*time.Minute)
	}
	for i := 0; i < 6; i++ {
		want = append(want, 10*time.Minute)
	}
	for i := 0; i < 3; i++ {
		want = append(want, 20*time.Minute)
	}
	want = append(want, 30*time.Minute, 30*time.Minute)
	want = append(want, time.Hour, time.Hour, time.Hour)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Totals: first hour 12 probes, hours 1-4 cover the paper's counts.
	sum := time.Duration(0)
	for _, d := range got[:12] {
		sum += d
	}
	if sum != time.Hour {
		t.Fatalf("first phase spans %v, want 1h", sum)
	}
}

func TestBackoffFiniteSchedule(t *testing.T) {
	b := NewBackoff([]BackoffStep{{time.Minute, 2}})
	if _, ok := b.Next(); !ok {
		t.Fatal("step 1 missing")
	}
	if _, ok := b.Next(); !ok {
		t.Fatal("step 2 missing")
	}
	if _, ok := b.Next(); ok {
		t.Fatal("finite schedule did not end")
	}
	b.Reset()
	if _, ok := b.Next(); !ok {
		t.Fatal("Reset did not rewind")
	}
}

func TestScheduleString(t *testing.T) {
	s := ScheduleString(PaperBackoff())
	if s == "" {
		t.Fatal("empty schedule string")
	}
}

// testBed builds a tiny campus with scripted devices and a running engine.
type testBed struct {
	clock  *simclock.Simulated
	fab    *fabric.Fabric
	net    *netsim.Network
	engine *Engine
}

// epoch: Monday 2021-11-01 00:00 UTC.
var epoch = time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC)

func newTestBed(t *testing.T, devices []*netsim.Device, blockICMP bool, lease time.Duration) *testBed {
	t.Helper()
	cfg := netsim.Config{
		Name:      "Academic-T",
		Type:      netsim.Academic,
		Suffix:    dnswire.MustName("campus-t.edu"),
		Announced: dnswire.MustPrefix("10.80.0.0/20"),
		Blocks: []netsim.Block{
			{Kind: netsim.BlockDynamic, Prefix: dnswire.MustPrefix("10.80.1.0/24"),
				Policy: ipam.PolicyCarryOver, SubLabel: "dyn"},
		},
		LeaseTime: lease,
		BlockICMP: blockICMP,
		Seed:      5,
	}
	n, err := netsim.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range devices {
		if err := n.AddDevice(d, 0, netsim.Student); err != nil {
			t.Fatal(err)
		}
	}
	clock := simclock.NewSimulated(epoch)
	fab := fabric.New(clock, fabric.Config{Latency: 5 * time.Millisecond})
	if err := n.Start(fab); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(fab, Config{
		Targets: []Target{{
			Name:     "Academic-T",
			Prefixes: []dnswire.Prefix{dnswire.MustPrefix("10.80.1.0/24")},
			DNS:      n.DNSAddr(),
		}},
		VantageICMP: dnswire.MustIPv4("198.51.100.10"),
		VantageDNS:  dnswire.MustIPv4("198.51.100.11"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	return &testBed{clock: clock, fab: fab, net: n, engine: eng}
}

func scriptedDevice(id uint64, host string, release bool, sessions map[time.Weekday][]netsim.Session) *netsim.Device {
	return &netsim.Device{
		ID: id, Owner: "brian", Kind: netsim.KindIPhone, HostName: host,
		MAC:         macFor(id),
		SendRelease: release,
		Schedule:    &netsim.ScriptedScheduler{Weekly: sessions},
	}
}

func macFor(id uint64) [6]byte {
	return [6]byte{2, 0, 0, 0, byte(id >> 8), byte(id)}
}

func mondaySession(from, to time.Duration) map[time.Weekday][]netsim.Session {
	return map[time.Weekday][]netsim.Session{
		time.Monday: {{Start: from, End: to}},
	}
}

func TestReleasingClientGroupLifecycle(t *testing.T) {
	// Device online 09:00-10:00, sends DHCPRELEASE: the PTR vanishes at
	// 10:00 and follow-up detects it within ~10 minutes.
	dev := scriptedDevice(1, "Brian's iPhone", true, mondaySession(9*time.Hour, 10*time.Hour))
	tb := newTestBed(t, []*netsim.Device{dev}, false, time.Hour)
	defer tb.net.Stop()

	tb.clock.AdvanceTo(epoch.Add(14 * time.Hour))
	tb.engine.Stop()
	res := tb.engine.Results()

	var g *Group
	for _, cand := range res.Groups {
		if cand.PTRSeen {
			g = cand
		}
	}
	if g == nil {
		t.Fatalf("no complete group among %d groups", len(res.Groups))
	}
	if g.FirstPTR != dnswire.MustName("brians-iphone.dyn.campus-t.edu") {
		t.Fatalf("FirstPTR = %q", g.FirstPTR)
	}
	if !g.Complete || !g.Reverted {
		t.Fatalf("group = %+v", g)
	}
	// Start should be at the 10:00-hourly sweep that first saw it: the
	// sweeps run at 00:00, 01:00, ...; the device joined at 09:00, so
	// the 09:00 sweep may or may not catch it depending on fabric
	// latency; accept 09:00-10:00.
	if g.Start.Before(epoch.Add(9*time.Hour)) || g.Start.After(epoch.Add(10*time.Hour)) {
		t.Fatalf("Start = %v", g.Start)
	}
	delta := g.RemovalDelta()
	if delta < 0 || delta > 15*time.Minute {
		t.Fatalf("removal delta = %v, want <= 15m for a releasing client", delta)
	}
	if !g.ReliableTiming {
		t.Fatalf("short-session release should have reliable timing: %+v", g)
	}
}

func TestSilentClientLingersUntilLeaseExpiry(t *testing.T) {
	// Silent leaver with a 1h lease: the client renews at ~09:30 (T1),
	// leaves at 10:00, the lease expires at ~10:30, so the PTR is
	// removed 30-65 minutes after the last alive sample.
	dev := scriptedDevice(1, "Brians-MBP", false, mondaySession(9*time.Hour, 10*time.Hour))
	tb := newTestBed(t, []*netsim.Device{dev}, false, time.Hour)
	defer tb.net.Stop()

	tb.clock.AdvanceTo(epoch.Add(16 * time.Hour))
	tb.engine.Stop()
	res := tb.engine.Results()

	var g *Group
	for _, cand := range res.Groups {
		if cand.Reverted {
			g = cand
		}
	}
	if g == nil {
		t.Fatal("no reverted group")
	}
	delta := g.RemovalDelta()
	if delta < 25*time.Minute || delta > 70*time.Minute {
		t.Fatalf("removal delta = %v, want within (25m, 70m] for silent leave", delta)
	}
}

func TestBlockedICMPYieldsNoGroups(t *testing.T) {
	dev := scriptedDevice(1, "Brians-iPad", true, mondaySession(9*time.Hour, 10*time.Hour))
	tb := newTestBed(t, []*netsim.Device{dev}, true, time.Hour)
	defer tb.net.Stop()

	tb.clock.AdvanceTo(epoch.Add(12 * time.Hour))
	tb.engine.Stop()
	res := tb.engine.Results()
	if len(res.Groups) != 0 || res.ICMPResponses != 0 {
		t.Fatalf("blocked network produced %d groups, %d icmp responses",
			len(res.Groups), res.ICMPResponses)
	}
	if res.PerNetworkAlive["Academic-T"] != 0 {
		t.Fatalf("alive count = %d", res.PerNetworkAlive["Academic-T"])
	}
}

func TestMultipleSessionsMultipleGroups(t *testing.T) {
	sessions := map[time.Weekday][]netsim.Session{
		time.Monday: {
			{Start: 9 * time.Hour, End: 10 * time.Hour},
			{Start: 13 * time.Hour, End: 14 * time.Hour},
		},
	}
	dev := scriptedDevice(1, "Brians-Air", true, sessions)
	tb := newTestBed(t, []*netsim.Device{dev}, false, time.Hour)
	defer tb.net.Stop()

	tb.clock.AdvanceTo(epoch.Add(18 * time.Hour))
	tb.engine.Stop()
	res := tb.engine.Results()
	reverted := 0
	for _, g := range res.Groups {
		if g.Reverted {
			reverted++
		}
	}
	if reverted != 2 {
		t.Fatalf("reverted groups = %d, want 2 (two sessions)", reverted)
	}
}

func TestResultsAccounting(t *testing.T) {
	dev := scriptedDevice(1, "Brians-phone", true, mondaySession(9*time.Hour, 11*time.Hour))
	tb := newTestBed(t, []*netsim.Device{dev}, false, time.Hour)
	defer tb.net.Stop()

	tb.clock.AdvanceTo(epoch.Add(13 * time.Hour))
	tb.engine.Stop()
	res := tb.engine.Results()
	if res.ICMPResponses == 0 || res.RDNSResponses == 0 {
		t.Fatalf("responses: icmp=%d rdns=%d", res.ICMPResponses, res.RDNSResponses)
	}
	if res.ICMPUniqueIPs != 1 || res.RDNSUniqueIPs != 1 || res.RDNSUniquePTRs != 1 {
		t.Fatalf("unique: %d/%d/%d", res.ICMPUniqueIPs, res.RDNSUniqueIPs, res.RDNSUniquePTRs)
	}
	// Every alive result is one reply the prober matched, and nothing else.
	if ps := tb.engine.ProberStats(); ps.Received != res.ICMPResponses || ps.Sent <= ps.Received || ps.Malformed != 0 {
		t.Fatalf("prober %+v, engine counted %d icmp responses", ps, res.ICMPResponses)
	}
	if res.PerNetworkAlive["Academic-T"] != 1 {
		t.Fatalf("alive = %d", res.PerNetworkAlive["Academic-T"])
	}
	if len(res.Days) == 0 {
		t.Fatal("no day accounting")
	}
	nx := 0
	for _, d := range res.Days {
		nx += d.NXDomain
	}
	if nx == 0 {
		t.Fatal("no NXDOMAIN observed despite record removal follow-up")
	}
	if len(res.Hours["Academic-T"]) == 0 {
		t.Fatal("no hourly activity accounting")
	}
}

func TestHourlyActivityTracksDiurnalPattern(t *testing.T) {
	// Two devices with day sessions: hourly ICMP counts must be higher
	// at 10:00 than at 04:00.
	devs := []*netsim.Device{
		scriptedDevice(1, "a-phone", true, mondaySession(9*time.Hour, 17*time.Hour)),
		scriptedDevice(2, "b-phone", true, mondaySession(8*time.Hour, 16*time.Hour)),
	}
	tb := newTestBed(t, devs, false, time.Hour)
	defer tb.net.Stop()
	tb.clock.AdvanceTo(epoch.Add(20 * time.Hour))
	tb.engine.Stop()
	res := tb.engine.Results()

	at := func(h int) int {
		for _, hc := range res.Hours["Academic-T"] {
			if hc.Hour.Equal(epoch.Add(time.Duration(h) * time.Hour)) {
				return hc.ICMP
			}
		}
		return 0
	}
	if at(10) <= at(4) {
		t.Fatalf("activity at 10:00 (%d) not above 04:00 (%d)", at(10), at(4))
	}
}
