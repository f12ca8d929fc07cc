package simclock

import (
	"testing"
	"time"
)

// BenchmarkSimclockChurn is the clock's own cost at the Section 6 live
// run's queue length: 16384 calls pending, and each operation schedules one
// somewhere in the window ahead, runs the earliest, and one time in eight
// also stops a pending one and schedules its replacement. allocs/op and
// B/op are the gate (one Timer per scheduled call); ns/event is for
// reading, ns/op is the host's and not reported.
func BenchmarkSimclockChurn(b *testing.B) {
	const pending = 16384
	c := NewSimulated(epoch)
	f := func() {}
	rnd := uint64(1)
	ahead := func() time.Duration {
		rnd ^= rnd << 13
		rnd ^= rnd >> 7
		rnd ^= rnd << 17
		return time.Duration(1 + rnd%uint64(pending*time.Millisecond))
	}
	for i := 1; i < pending; i++ {
		c.AfterFunc(ahead(), f)
	}
	victim := c.AfterFunc(ahead(), f) // stopped, and replaced, eight operations on
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := c.AfterFunc(ahead(), f)
		if i%8 == 0 {
			if victim.Stop() {
				c.AfterFunc(ahead(), f)
			}
			victim = t
		}
		c.AdvanceTo(c.queue[0].ev.when)
	}
	b.StopTimer()
	if n := c.Pending(); n < pending-8 || n > pending {
		b.Fatalf("%d calls pending at the end, want %d: not a steady state", n, pending)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
	b.ReportMetric(0, "ns/op")
}
