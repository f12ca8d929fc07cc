package scan

import (
	"testing"
	"time"

	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/scanengine"
)

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
	added := 0
	for ip := range day {
		if _, ok := night[ip]; !ok {
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
