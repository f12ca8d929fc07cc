package netsim

import (
	"math/rand"
	"testing"
	"time"
	_ "time/tzdata" // the DST window needs America/New_York on any host

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/ipam"
)

// referencePresentAt is Device.PresentAt as RecordsAt evaluated it before
// it resolved each instant once: today's sessions, then yesterday's at
// today's occupancy. Kept verbatim as the oracle of
// TestRecordsAtMatchesPerDeviceReference.
func referencePresentAt(d *Device, t time.Time, occupancy float64) bool {
	date := midnight(t)
	off := t.Sub(date)
	for _, s := range d.Schedule.SessionsOn(date, occupancy) {
		if off >= s.Start && off < s.End {
			return true
		}
	}
	prev := date.AddDate(0, 0, -1)
	offPrev := off + 24*time.Hour
	for _, s := range d.Schedule.SessionsOn(prev, occupancy) {
		if offPrev >= s.Start && offPrev < s.End {
			return true
		}
	}
	return false
}

// referenceRecordVisible is the per-device visibility test RecordsAt ran
// for every dynamic device: present now, or a silent leave within one
// lease time on today's or yesterday's schedule, each at its own
// occupancy.
func referenceRecordVisible(n *Network, d *Device, t time.Time) bool {
	occ := n.occupancyFor(midnight(t), n.arch[d.ID])
	if referencePresentAt(d, t, occ) {
		return true
	}
	if d.SendRelease {
		return false
	}
	lease := n.cfg.LeaseTime
	for _, dayDelta := range []int{0, -1} {
		day := midnight(t).AddDate(0, 0, dayDelta)
		dayOcc := n.occupancyFor(day, n.arch[d.ID])
		for _, s := range d.SessionsOn(day, dayOcc) {
			end := day.Add(s.End)
			if end.Before(t) && t.Sub(end) < lease {
				return true
			}
		}
	}
	return false
}

// referenceRecordsAt is RecordsAt over referenceRecordVisible, with the
// PTR target computed per visible device as it used to be.
func referenceRecordsAt(n *Network, t time.Time) map[dnswire.IPv4]dnswire.Name {
	out := make(map[dnswire.IPv4]dnswire.Name)
	for ip, name := range n.staticRec {
		out[ip] = name
	}
	local := t.In(n.cfg.Location)
	for bi, b := range n.cfg.Blocks {
		if b.Kind != BlockDynamic || b.Policy == ipam.PolicyStaticForm || b.Policy == ipam.PolicyNone {
			continue
		}
		suffix := n.blockSuffix(b)
		for _, dd := range n.blockDev[bi] {
			d := dd.dev
			if !referenceRecordVisible(n, d, local) {
				continue
			}
			target, err := ipam.Target(b.Policy, suffix, leaseEventFor(d, n.deviceIP[d.ID]))
			if err != nil {
				continue
			}
			out[n.deviceIP[d.ID]] = target
		}
	}
	return out
}

// TestRecordsAtMatchesPerDeviceReference requires RecordsAt, which
// resolves each instant once and evaluates each device-day once, to return
// exactly the record set of the per-device reference for every network of
// a small universe in a non-UTC zone, every half hour of windows chosen
// for the cases where the two could part: a weekend, the Thanksgiving
// boundary (today's occupancy differs from yesterday's, the PresentAt
// quirk), a COVID phase change, both DST changes, and Cyber Monday, when
// the planted Brians (scripted, releasing and silent) come back.
func TestRecordsAtMatchesPerDeviceReference(t *testing.T) {
	ny, err := time.LoadLocation("America/New_York")
	if err != nil {
		t.Fatal(err)
	}
	u, err := BuildStudyUniverse(UniverseConfig{
		Seed:                  11,
		Location:              ny,
		FillerSlash24s:        1,
		LeakyNetworks:         6,
		NonLeakyDynamic:       2,
		PeoplePerDynamicBlock: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	windows := []struct {
		name  string
		first time.Time // local midnight; the window spans three days
	}{
		{"weekend", date(ny, 2021, time.January, 8)},
		{"thanksgiving", date(ny, 2021, time.November, 24)},
		{"cyber-monday", date(ny, 2021, time.November, 27)},
		{"covid-closure", date(ny, 2020, time.March, 15)},
		{"dst-spring", date(ny, 2021, time.March, 13)},
		{"dst-fall", date(ny, 2021, time.November, 6)},
	}
	var scripted, silent, releasing, occChanges, lingering int
	for _, n := range u.Networks {
		for _, d := range n.devices {
			if _, ok := d.Schedule.(*ScriptedScheduler); ok {
				scripted++
			}
			if d.SendRelease {
				releasing++
			} else {
				silent++
			}
		}
	}
	if scripted == 0 || silent == 0 || releasing == 0 {
		t.Fatalf("universe lacks a case: %d scripted, %d silent, %d releasing devices", scripted, silent, releasing)
	}
	for _, w := range windows {
		end := w.first.AddDate(0, 0, 3)
		for at := w.first; at.Before(end); at = at.Add(30 * time.Minute) {
			for _, n := range u.Networks {
				want := referenceRecordsAt(n, at)
				got := make(map[dnswire.IPv4]dnswire.Name)
				n.RecordsAt(at, func(r Record) {
					if _, dup := got[r.IP]; dup {
						t.Fatalf("%s %v %s: %v emitted twice", w.name, at, n.Name(), r.IP)
					}
					got[r.IP] = r.HostName
				})
				if len(got) != len(want) {
					t.Fatalf("%s %v %s: %d records, reference %d", w.name, at, n.Name(), len(got), len(want))
				}
				for ip, name := range want {
					if got[ip] != name {
						t.Fatalf("%s %v %s: %v = %q, reference %q", w.name, at, n.Name(), ip, got[ip], name)
					}
				}
				local := at.In(ny)
				today := midnight(local)
				for a := Staff; a <= Infra; a++ {
					if local.Equal(today) && n.occupancyFor(today, a) != n.occupancyFor(today.AddDate(0, 0, -1), a) {
						occChanges++
					}
				}
				for _, block := range n.blockDev {
					for _, dd := range block {
						_, visible := want[dd.ip]
						if visible && !referencePresentAt(dd.dev, local, n.occupancyFor(today, dd.arch)) {
							lingering++
						}
					}
				}
			}
		}
	}
	if occChanges == 0 || lingering == 0 {
		t.Fatalf("windows never hit a case: %d occupancy changes at a local midnight, %d lingering records", occChanges, lingering)
	}
}

// TestHashMoreExtendsHash64 pins the identity archetypeScheduler relies on
// to hash (seed, id) once per device: extending an FNV-1a state by more
// values equals hashing the whole sequence.
func TestHashMoreExtendsHash64(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		a, b, c, d := r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()
		if got, want := hashMore(hash64(a, b), c, d), hash64(a, b, c, d); got != want {
			t.Fatalf("hashMore(hash64(%x, %x), %x, %x) = %x, hash64 of all four = %x", a, b, c, d, got, want)
		}
		if got, want := hashMore(hashMore(hash64(a), b), c), hash64(a, b, c); got != want {
			t.Fatalf("chained hashMore over (%x, %x, %x) = %x, want %x", a, b, c, got, want)
		}
	}
	if hashMore(fnvOffset) != hash64() {
		t.Fatal("hashMore of no parts changed the offset basis")
	}
}
