package netsim

import (
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/faultsim"
	"rdnsprivacy/internal/simclock"
)

func TestStringers(t *testing.T) {
	if KindIPhone.String() != "iphone" || KindGalaxyNote.String() != "galaxy-note" {
		t.Fatal("DeviceKind.String broken")
	}
	if DeviceKind(99).String() != "unknown" {
		t.Fatal("unknown DeviceKind.String broken")
	}
	for a, want := range map[Archetype]string{
		Staff: "staff", Student: "student", Resident: "resident",
		Employee: "employee", HomeUser: "home-user", Infra: "infra",
		Archetype(42): "unknown",
	} {
		if a.String() != want {
			t.Fatalf("%d.String() = %q", int(a), a.String())
		}
	}
	if NetworkType(42).String() != "unknown" {
		t.Fatal("unknown NetworkType.String broken")
	}
}

func TestHomeUserDiurnalPattern(t *testing.T) {
	// Home users peak in the evening, with a weekend daytime presence.
	monday := time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC)
	saturday := monday.AddDate(0, 0, 5)
	evening, weekdayNoon, weekendNoon := 0, 0, 0
	for id := uint64(0); id < 300; id++ {
		d := &Device{ID: id, Schedule: NewArchetypeScheduler(HomeUser, id, 9)}
		if d.PresentAt(monday.Add(20*time.Hour), 1) {
			evening++
		}
		if d.PresentAt(monday.Add(12*time.Hour), 1) {
			weekdayNoon++
		}
		if d.PresentAt(saturday.Add(12*time.Hour), 1) {
			weekendNoon++
		}
	}
	if evening < 150 {
		t.Fatalf("evening presence = %d/300", evening)
	}
	if weekdayNoon >= evening {
		t.Fatalf("weekday noon (%d) not below evening (%d)", weekdayNoon, evening)
	}
	if weekendNoon <= weekdayNoon {
		t.Fatalf("weekend noon (%d) not above weekday noon (%d)", weekendNoon, weekdayNoon)
	}
}

func TestMergeSessions(t *testing.T) {
	in := []Session{
		{10 * time.Hour, 12 * time.Hour},
		{11 * time.Hour, 13 * time.Hour}, // overlaps the first
		{15 * time.Hour, 16 * time.Hour},
	}
	out := mergeSessions(in)
	if len(out) != 2 {
		t.Fatalf("merged = %v", out)
	}
	if out[0].Start != 10*time.Hour || out[0].End != 13*time.Hour {
		t.Fatalf("merged[0] = %v", out[0])
	}
	if got := mergeSessions(nil); len(got) != 0 {
		t.Fatalf("merge nil = %v", got)
	}
}

func TestLiveModeAcrossMidnight(t *testing.T) {
	// The midnight tick must schedule the new day: a device with a
	// Tuesday-only session joins after the simulation crosses midnight.
	cfg := testNetworkConfig()
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := &Device{
		ID: 1, Owner: "emma", Kind: KindIPad, HostName: "Emma's iPad",
		MAC: macForID(1), SendRelease: true,
		Schedule: &ScriptedScheduler{Weekly: map[time.Weekday][]Session{
			time.Tuesday: {{9 * time.Hour, 10 * time.Hour}},
		}},
	}
	n.AddDevice(dev, 0, Student)
	// Start Monday 22:00; advance into Tuesday 09:30.
	start := time.Date(2021, 11, 1, 22, 0, 0, 0, time.UTC)
	clock := simclock.NewSimulated(start)
	fab := fabric.New(clock, fabric.Config{})
	if err := n.Start(fab); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	clock.AdvanceTo(time.Date(2021, 11, 2, 9, 30, 0, 0, time.UTC))
	if liveRecordCount(n) == 0 {
		t.Fatal("no live records at all")
	}
	devIP, _ := n.DeviceIP(dev)
	n.mu.Lock()
	online := n.onlineIP[devIP]
	n.mu.Unlock()
	if !online {
		t.Fatal("Tuesday device not online after midnight tick")
	}
	if n.JoinFailures() != 0 {
		t.Fatalf("join failures = %d", n.JoinFailures())
	}
}

func TestLiveModeDNSFailureInjection(t *testing.T) {
	cfg := testNetworkConfig()
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.SetDNSFailure(faultsim.Plan{Seed: 1, Profiles: []faultsim.Profile{{ServFailRate: 1.0}}})
	clock := simclock.NewSimulated(time.Date(2021, 11, 1, 8, 0, 0, 0, time.UTC))
	fab := fabric.New(clock, fabric.Config{Latency: time.Millisecond})
	if err := n.Start(fab); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	// Every query must now fail server-side.
	var rcode dnswire.RCode
	got := false
	ep, err := fab.Bind(fabric.Addr{IP: dnswire.MustIPv4("198.51.100.9"), Port: 4000},
		func(dg fabric.Datagram) {
			if m, err := dnswire.Unmarshal(dg.Payload); err == nil {
				rcode = m.Header.RCode
				got = true
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := dnswire.NewQuery(1, dnswire.ReverseName(dnswire.MustIPv4("10.50.1.7")), dnswire.TypePTR).Marshal()
	ep.Send(n.DNSAddr(), q)
	clock.Advance(time.Second)
	if !got {
		t.Fatal("no response")
	}
	if rcode != dnswire.RCodeServFail {
		t.Fatalf("rcode = %v, want SERVFAIL", rcode)
	}
}

func TestDoubleStartRejected(t *testing.T) {
	n, err := NewNetwork(testNetworkConfig())
	if err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewSimulated(epoch)
	fab := fabric.New(clock, fabric.Config{})
	if err := n.Start(fab); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	if err := n.Start(fab); err == nil {
		t.Fatal("double Start accepted")
	}
}
