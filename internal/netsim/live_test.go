package netsim

import (
	"runtime"
	"testing"
	"time"

	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/simclock"
)

// populatedNetwork is the test network with 100 staff and their 200
// devices in its /24 dynamic block.
func populatedNetwork(t *testing.T) *Network {
	t.Helper()
	n, err := NewNetwork(testNetworkConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Populate(PopulateSpec{
		Block: 0, People: 100, Archetype: Staff,
		NamedFraction: 1.0, DevicesPerPerson: 2, ReleaseFraction: 0.5,
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestLiveModeHoldsNoFiredTimers runs a live network for a month and
// compares 04:00 on two Thursdays three weeks apart: a live run schedules
// some thousand joins and leaves a day, and must hold on to none of them
// once they have fired — neither on the clock nor on the heap.
func TestLiveModeHoldsNoFiredTimers(t *testing.T) {
	n := populatedNetwork(t)
	clock := simclock.NewSimulated(epoch)
	if err := n.Start(fabric.New(clock, fabric.Config{Latency: 10 * time.Millisecond})); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	measure := func(day int) (pending int, heap uint64) {
		clock.AdvanceTo(epoch.AddDate(0, 0, day).Add(4 * time.Hour))
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return clock.Pending(), ms.HeapInuse
	}
	pending10, heap10 := measure(10)
	pending31, heap31 := measure(31)
	t.Logf("day 10: %d pending, %d B in use; day 31: %d pending, %d B in use", pending10, heap10, pending31, heap31)
	if n.JoinFailures() != 0 {
		t.Fatalf("%d joins failed", n.JoinFailures())
	}
	if pending10 == 0 || pending31 > pending10+pending10/10 {
		t.Errorf("clock holds %d events on day 31, %d on day 10", pending31, pending10)
	}
	// 21 days of retained timers for 200 devices is half a megabyte.
	if heap31 > heap10+256<<10 {
		t.Errorf("heap in use grew from %d to %d bytes between day 10 and day 31", heap10, heap31)
	}
}

// TestStopThenStartDeliversNoStaleJoin: the joins and leaves of a stopped
// run stay on its clock, and must find their run over when they fire — a
// second run, here on a clock of its own that never moves, sees none of
// them.
func TestStopThenStartDeliversNoStaleJoin(t *testing.T) {
	n := populatedNetwork(t)
	first := simclock.NewSimulated(epoch.Add(6 * time.Hour))
	if err := n.Start(fabric.New(first, fabric.Config{})); err != nil {
		t.Fatal(err)
	}
	n.Stop()

	second := simclock.NewSimulated(epoch.Add(6 * time.Hour))
	if err := n.Start(fabric.New(second, fabric.Config{})); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	before := liveRecordCount(n)

	// The first run's whole Monday, and its midnight tick, fire now.
	first.Advance(48 * time.Hour)
	if got := liveRecordCount(n); got != before {
		t.Fatalf("records went from %d to %d: a stopped run's join reached the new run", before, got)
	}
	if n.JoinFailures() != 0 {
		t.Fatalf("%d joins failed", n.JoinFailures())
	}
	// Left alone, the first run's clock drains: its midnight tick did not
	// re-arm.
	first.RunUntilIdle()

	// The new run itself is live.
	second.Advance(6 * time.Hour)
	if got := liveRecordCount(n); got <= before {
		t.Fatalf("records stayed at %d at noon: the new run's own joins did not happen", got)
	}
}
