package netsim

import (
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/ipam"
)

func TestResidentCrossMidnightPresence(t *testing.T) {
	// Across many residents on a weekend night, some must still be
	// online shortly after midnight (night owls), and presence must be
	// attributed through the previous day's session.
	saturday := time.Date(2021, 11, 6, 0, 0, 0, 0, time.UTC)
	sundayNight := saturday.AddDate(0, 0, 1).Add(1 * time.Hour) // Sun 01:00
	online := 0
	for id := uint64(0); id < 300; id++ {
		d := &Device{
			ID:       id,
			Schedule: NewArchetypeScheduler(Resident, id, 5),
		}
		if d.PresentAt(sundayNight, 1) {
			online++
		}
	}
	if online == 0 {
		t.Fatal("no resident device online at 01:00; night tail missing")
	}
	if online > 250 {
		t.Fatalf("%d/300 residents online at 01:00; too many", online)
	}
}

func TestHomebodyDevicesOnlineAtMidday(t *testing.T) {
	// A stable fraction of resident devices stay connected at 13:00 on
	// a normal weekday (desktops, TVs) — the midday housing baseline.
	monday := time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC)
	midday := monday.Add(13 * time.Hour)
	online := 0
	for id := uint64(0); id < 300; id++ {
		d := &Device{ID: id, Schedule: NewArchetypeScheduler(Resident, id, 5)}
		if d.PresentAt(midday, 1) {
			online++
		}
	}
	if online < 60 || online > 200 {
		t.Fatalf("%d/300 residents online at 13:00, want a solid minority", online)
	}
}

func TestHomebodyTraitIsStable(t *testing.T) {
	// The same device must be a homebody (or not) on every day — it is
	// a device trait, not a daily coin flip.
	d := &Device{ID: 77, Schedule: NewArchetypeScheduler(Resident, 77, 5)}
	monday := time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC)
	midday := 13 * time.Hour
	first := d.PresentAt(monday.Add(midday), 1)
	flips := 0
	for w := 1; w <= 8; w++ {
		// Same weekday across weeks: show-up randomness varies, but a
		// non-homebody must never be present at 13:00 on a weekday.
		got := d.PresentAt(monday.AddDate(0, 0, 7*w).Add(midday), 1)
		if got != first {
			flips++
		}
	}
	if !first && flips > 0 {
		t.Fatalf("non-homebody device present at midday in %d weeks", flips)
	}
}

func TestBuildingForLookup(t *testing.T) {
	cfg := testNetworkConfig()
	cfg.Blocks[0].Building = "library"
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := n.BuildingFor(dnswire.MustIPv4("10.50.1.77"))
	if !ok || b != "library" {
		t.Fatalf("BuildingFor = %q, %v", b, ok)
	}
	if _, ok := n.BuildingFor(dnswire.MustIPv4("10.50.2.1")); ok {
		t.Fatal("building reported for unlabelled block")
	}
}

func TestRoamingBrianPlacement(t *testing.T) {
	u, err := BuildStudyUniverse(UniverseConfig{
		Seed: 42, FillerSlash24s: 400, LeakyNetworks: 12,
		NonLeakyDynamic: 2, PeoplePerDynamicBlock: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, _ := u.NetworkByName("Academic-A")
	// The roaming phone exists in several blocks, with one MAC.
	var ips []dnswire.IPv4
	macs := map[string]bool{}
	buildings := map[string]bool{}
	for _, d := range devices(n) {
		if d.HostName != "Brians-Galaxy-S10" {
			continue
		}
		ip, _ := n.DeviceIP(d)
		ips = append(ips, ip)
		macs[d.MAC.String()] = true
		if b, ok := n.BuildingFor(ip); ok {
			buildings[b] = true
		}
	}
	if len(ips) < 4 {
		t.Fatalf("roaming phone in %d blocks, want 4", len(ips))
	}
	if len(macs) != 1 {
		t.Fatalf("roaming phone has %d MACs, want 1 (one physical device)", len(macs))
	}
	if !buildings["library"] || !buildings["dorm-west"] {
		t.Fatalf("buildings = %v", buildings)
	}
}

func TestHomeMBPOnISPA(t *testing.T) {
	u, err := BuildStudyUniverse(UniverseConfig{
		Seed: 42, FillerSlash24s: 400, LeakyNetworks: 12,
		NonLeakyDynamic: 2, PeoplePerDynamicBlock: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	isp, _ := u.NetworkByName("ISP-A")
	found := false
	for _, d := range devices(isp) {
		if d.HostName == "Brians-MBP" {
			found = true
			// Present in the evening, absent at noon.
			mon := time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC)
			if !d.PresentAt(mon.Add(20*time.Hour), 1) {
				t.Fatal("home MBP offline at 20:00")
			}
			if d.PresentAt(mon.Add(12*time.Hour), 1) {
				t.Fatal("home MBP online at noon (should be on campus)")
			}
		}
	}
	if !found {
		t.Fatal("Brians-MBP not planted on ISP-A")
	}
	// And no OTHER random Brian devices shadow it on ISP-A.
	for _, d := range devices(isp) {
		if d.Owner == "brian" && d.HostName != "Brians-MBP" {
			t.Fatalf("random brian device %q on ISP-A", d.HostName)
		}
	}
}

func TestCampusBlocksCarryBuildings(t *testing.T) {
	u, err := BuildStudyUniverse(UniverseConfig{
		Seed: 42, FillerSlash24s: 400, LeakyNetworks: 12,
		NonLeakyDynamic: 2, PeoplePerDynamicBlock: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Academic-A", "Academic-B", "Academic-C"} {
		n, _ := u.NetworkByName(name)
		labelled := 0
		for _, b := range n.Config().Blocks {
			if b.Kind == BlockDynamic && b.Policy == ipam.PolicyCarryOver && b.Building != "" {
				labelled++
			}
		}
		if labelled == 0 {
			t.Errorf("%s: no buildings in the numbering plan", name)
		}
	}
}

// PresentAt reports whether the device is on the network at t (local time),
// given the occupancy factor for that day. Sessions may cross midnight, so
// the previous day's schedule is consulted for spill-over (a student online
// until 02:30 is present on the new day under the old day's session).
//
// The spill-over check evaluates yesterday's schedule at today's occupancy,
// not yesterday's: on a day the occupancy changes (a holiday begins, a
// COVID phase starts) yesterday's late sessions are redrawn under today's
// regime, the quirk Network.RecordsAt keeps.
func (d *Device) PresentAt(t time.Time, occupancy float64) bool {
	date := midnight(t)
	off := t.Sub(date)
	for _, s := range d.SessionsOn(date, occupancy) {
		if off >= s.Start && off < s.End {
			return true
		}
	}
	prev := date.AddDate(0, 0, -1)
	offPrev := off + 24*time.Hour
	for _, s := range d.SessionsOn(prev, occupancy) {
		if offPrev >= s.Start && offPrev < s.End {
			return true
		}
	}
	return false
}
