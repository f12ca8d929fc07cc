package icmp

import (
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/simclock"
)

// countingClock counts what the code under test puts on the clock's queue.
type countingClock struct {
	*simclock.Simulated
	scheduled int
}

func (c *countingClock) AfterFunc(d time.Duration, f func()) simclock.Timer {
	c.scheduled++
	return c.Simulated.AfterFunc(d, f)
}

func (c *countingClock) AfterDeliver(d time.Duration, sink simclock.Sink, arg uint64) {
	c.scheduled++
	c.Simulated.AfterDeliver(d, sink, arg)
}

// BenchmarkProberSweep sweeps one /20 over the fabric the study uses (20 ms
// latency, up to 10 ms jitter) with one host in twenty alive. Gated on
// allocs/op, B/op and events/op — calls put on the clock per probed
// address: one for the request's delivery, a twentieth for the replies,
// and one timer for the whole sweep. Two per address means every probe
// carries a timer of its own again. Of the allocations, 4096 are sweepAll's
// own per-probe callbacks: a packet in flight allocates nothing. ns/op is
// the host's and not reported.
func BenchmarkProberSweep(b *testing.B) {
	clock := &countingClock{Simulated: simclock.NewSimulated(epoch)}
	fab := fabric.New(clock, fabric.Config{Latency: 20 * time.Millisecond, Jitter: 10 * time.Millisecond, Seed: 1})
	sweep := dnswire.MustPrefix("10.20.0.0/20")
	NewResponder(fab, sweep, func(ip dnswire.IPv4) bool { return ip[3]%20 == 7 }, false)
	p, err := NewProber(fab, ProberConfig{Vantage: vantage, ID: 0x7e57})
	if err != nil {
		b.Fatal(err)
	}
	alive := 0
	done := func(rs []ProbeResult) {
		for _, r := range rs {
			if r.Alive {
				alive++
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweepAll(p, sweep, done)
		clock.Advance(time.Hour)
	}
	b.StopTimer()
	if want := b.N * 16 * 13; alive != want || clock.Pending() != 0 {
		b.Fatalf("%d hosts alive over %d sweeps, want %d; %d events left on the clock", alive, b.N, want, clock.Pending())
	}
	b.ReportMetric(float64(clock.scheduled)/float64(b.N*sweep.NumAddresses()), "events/op")
	b.ReportMetric(0, "ns/op")
}
