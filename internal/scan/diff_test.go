package scan

import (
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/scanengine"
)

// The diffs are scanengine's; these cases check them on the paper's join/leave
// examples and against a live network's schedule.
func TestDiffRecords(t *testing.T) {
	a := dnswire.MustIPv4("10.0.0.1")
	b := dnswire.MustIPv4("10.0.0.2")
	c := dnswire.MustIPv4("10.0.0.3")
	d := dnswire.MustIPv4("10.0.0.4")
	prev := scanengine.RecordSet{
		a: dnswire.MustName("brians-iphone.dyn.x.edu"),
		b: dnswire.MustName("emmas-ipad.dyn.x.edu"),
		c: dnswire.MustName("noahs-mbp.dyn.x.edu"),
	}
	cur := scanengine.RecordSet{
		a: dnswire.MustName("brians-iphone.dyn.x.edu"), // unchanged
		b: dnswire.MustName("jacobs-dell.dyn.x.edu"),   // reallocated
		d: dnswire.MustName("mias-galaxy.dyn.x.edu"),   // joined
		// c removed: left.
	}
	changes := scanengine.DiffRecords(prev, cur)
	if len(changes) != 3 {
		t.Fatalf("changes = %+v", changes)
	}
	if changes[0].Kind != scanengine.RecordChanged || changes[0].IP != b ||
		changes[0].Old != dnswire.MustName("emmas-ipad.dyn.x.edu") ||
		changes[0].New != dnswire.MustName("jacobs-dell.dyn.x.edu") {
		t.Fatalf("change 0 = %+v", changes[0])
	}
	if changes[1].Kind != scanengine.RecordRemoved || changes[1].IP != c {
		t.Fatalf("change 1 = %+v", changes[1])
	}
	if changes[2].Kind != scanengine.RecordAdded || changes[2].IP != d {
		t.Fatalf("change 2 = %+v", changes[2])
	}
}

func TestDiffRecordsEmptyCases(t *testing.T) {
	if got := scanengine.DiffRecords(nil, nil); len(got) != 0 {
		t.Fatalf("diff of nothing = %v", got)
	}
	only := scanengine.RecordSet{dnswire.MustIPv4("10.0.0.1"): dnswire.MustName("x.example")}
	if got := scanengine.DiffRecords(nil, only); len(got) != 1 || got[0].Kind != scanengine.RecordAdded {
		t.Fatalf("adds = %v", got)
	}
	if got := scanengine.DiffRecords(only, nil); len(got) != 1 || got[0].Kind != scanengine.RecordRemoved {
		t.Fatalf("removes = %v", got)
	}
}

func TestDiffAgainstLiveNetwork(t *testing.T) {
	// Two snapshot instants of a real network: the diff must reflect
	// schedule-driven joins.
	u := smallUniverse(t)
	n, _ := u.NetworkByName("Enterprise-A")
	snapshotAt := func(hour int) scanengine.RecordSet {
		at := time.Date(2021, 11, 2, hour, 0, 0, 0, time.UTC) // Tuesday
		rs := scanengine.RecordSet{}
		n.RecordsAt(at, func(r netsim.Record) { rs[r.IP] = r.HostName })
		return rs
	}
	night := snapshotAt(4)
	day := snapshotAt(11)
	changes := scanengine.DiffRecords(night, day)
	added := 0
	for _, ch := range changes {
		if ch.Kind == scanengine.RecordAdded {
			added++
		}
	}
	if added == 0 {
		t.Fatal("no joins between 04:00 and 11:00 on a Tuesday")
	}
}

func TestChangeKindStrings(t *testing.T) {
	if scanengine.RecordAdded.String() != "added" || scanengine.RecordRemoved.String() != "removed" ||
		scanengine.RecordChanged.String() != "changed" || scanengine.ChangeKind(9).String() != "unknown" {
		t.Fatal("ChangeKind.String broken")
	}
}
