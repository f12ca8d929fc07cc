package icmp

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/simclock"
)

var testNet = dnswire.MustPrefix("192.0.2.0/24")

// TestTimeoutsInTransmitOrderAtTheirDeadline: unanswered probes sent at
// five different instants, several at each, all fail at exactly sent +
// Timeout and in the order they were sent — off one timer, which is gone
// again once the last has failed.
func TestTimeoutsInTransmitOrderAtTheirDeadline(t *testing.T) {
	p, _, clock := newProbeEnv(t, ProberConfig{Timeout: 2 * time.Second})
	idle := clock.Pending()
	type completion struct {
		target dnswire.IPv4
		sent   time.Time
		at     time.Time
	}
	var sent []dnswire.IPv4
	var done []completion
	for burst := 0; burst < 5; burst++ {
		for i := 0; i < 7; i++ {
			ip := testNet.Nth(len(sent))
			sent = append(sent, ip)
			p.Probe(ip, func(r ProbeResult) {
				if r.Alive || r.RTT != 0 {
					t.Errorf("%v: %+v, want a plain timeout", ip, r)
				}
				done = append(done, completion{r.Target, r.Sent, clock.Now()})
			})
		}
		clock.Advance(300 * time.Millisecond)
	}
	clock.Advance(10 * time.Second)
	if len(done) != len(sent) {
		t.Fatalf("%d of %d probes completed", len(done), len(sent))
	}
	for i, c := range done {
		if c.target != sent[i] {
			t.Fatalf("completion %d is %v, want %v (transmit order)", i, c.target, sent[i])
		}
		if want := epoch.Add(time.Duration(i/7) * 300 * time.Millisecond); !c.sent.Equal(want) {
			t.Fatalf("%v: Sent = %v, want %v", c.target, c.sent, want)
		}
		if !c.at.Equal(c.sent.Add(2 * time.Second)) {
			t.Fatalf("%v sent %v timed out at %v, want exactly 2s later", c.target, c.sent, c.at)
		}
	}
	if clock.Pending() != idle {
		t.Fatalf("%d events on the clock with nothing in flight, want %d", clock.Pending(), idle)
	}
}

// TestReplyAtItsDeadlineLoses pins what happens when a reply is delivered
// at the very instant its probe times out: the probe has failed, as it did
// when each probe carried its own timer (set when the probe was sent, so
// always ahead of a delivery scheduled later for the same instant). The
// second case is the one a shared timer could get wrong: the timer is
// re-armed, for the second probe, only after that probe's reply is on the
// clock for the same instant.
func TestReplyAtItsDeadlineLoses(t *testing.T) {
	alive := dnswire.MustIPv4("192.0.2.9")
	setup := func(t *testing.T) (*Prober, *simclock.Simulated) {
		clock := simclock.NewSimulated(epoch)
		fab := fabric.New(clock, fabric.Config{Latency: 500 * time.Millisecond})
		NewResponder(fab, testNet, func(ip dnswire.IPv4) bool { return ip == alive }, false)
		p, err := NewProber(fab, ProberConfig{Vantage: vantage, Timeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return p, clock
	}
	check := func(t *testing.T, p *Prober, got []ProbeResult) {
		t.Helper()
		if len(got) != 1 || got[0].Alive {
			t.Fatalf("results %+v, want one timeout", got)
		}
		if st := p.Stats(); st.Received != 0 {
			t.Fatalf("stats %+v: the late reply was counted", st)
		}
	}
	t.Run("alone", func(t *testing.T) {
		p, clock := setup(t)
		var got []ProbeResult
		p.Probe(alive, func(r ProbeResult) { got = append(got, r) })
		clock.Advance(5 * time.Second)
		check(t, p, got)
	})
	t.Run("behind an older probe", func(t *testing.T) {
		p, clock := setup(t)
		var got []ProbeResult
		p.Probe(dnswire.MustIPv4("192.0.2.1"), func(ProbeResult) {})
		clock.Advance(250 * time.Millisecond)
		p.Probe(alive, func(r ProbeResult) { got = append(got, r) })
		clock.Advance(5 * time.Second)
		check(t, p, got)
	})
}

// TestReplyAfterTimeoutIsIgnored: the round trip is longer than Timeout.
func TestReplyAfterTimeoutIsIgnored(t *testing.T) {
	clock := simclock.NewSimulated(epoch)
	fab := fabric.New(clock, fabric.Config{Latency: 600 * time.Millisecond})
	NewResponder(fab, testNet, func(dnswire.IPv4) bool { return true }, false)
	p, err := NewProber(fab, ProberConfig{Vantage: vantage, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	p.Probe(testNet.Nth(3), func(r ProbeResult) {
		calls++
		if r.Alive {
			t.Errorf("late reply accepted: %+v", r)
		}
	})
	clock.Advance(5 * time.Second)
	if st := p.Stats(); calls != 1 || st.Sent != 1 || st.Received != 0 || st.Malformed != 0 {
		t.Fatalf("done called %d times, stats %+v", calls, st)
	}
}

// TestAnsweredProbesLeaveNoTimer: once every probe in flight has been
// answered the timer is taken off the clock, not left to fire on nothing.
func TestAnsweredProbesLeaveNoTimer(t *testing.T) {
	p, fab, clock := newProbeEnv(t, ProberConfig{Timeout: 2 * time.Second})
	NewResponder(fab, testNet, func(dnswire.IPv4) bool { return true }, false)
	idle := clock.Pending()
	alive := 0
	p.Sweep(testNet, func(rs []ProbeResult) {
		for _, r := range rs {
			if r.Alive {
				alive++
			}
		}
	})
	if clock.Pending() != idle+256+1 {
		t.Fatalf("%d events for 256 probes, want one each and one timer", clock.Pending()-idle)
	}
	clock.Advance(100 * time.Millisecond) // every reply is in; no deadline has passed
	if alive != 256 {
		t.Fatalf("%d hosts alive, want 256", alive)
	}
	if clock.Pending() != idle {
		t.Fatalf("%d events on the clock with nothing in flight, want %d", clock.Pending(), idle)
	}
}

// TestSequenceWrapDisplacesOldestExactlyOnce sweeps a /15 in one instant:
// twice the 16-bit sequence space. Each probe of the second half takes the
// number of one of the first half, which fails on the spot; the second
// half then runs its course. Every probe completes exactly once, a reply
// to a displaced probe does not complete the probe that took its number,
// and nothing stays on the clock.
func TestSequenceWrapDisplacesOldestExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("131072 probes")
	}
	p, fab, clock := newProbeEnv(t, ProberConfig{Timeout: 2 * time.Second})
	sweep := dnswire.MustPrefix("10.0.0.0/15")
	isAlive := func(ip dnswire.IPv4) bool { return ip[3]%16 == 5 }
	NewResponder(fab, sweep, isAlive, false)
	idle := clock.Pending()

	n := sweep.NumAddresses()
	calls := make([]uint8, n)
	aliveSeen := make([]bool, n)
	completed := 0
	for i := 0; i < n; i++ {
		i := i
		p.Probe(sweep.Nth(i), func(r ProbeResult) {
			if r.Target != sweep.Nth(i) || !r.Sent.Equal(epoch) {
				t.Errorf("probe %d completed as %+v", i, r)
			}
			calls[i]++
			aliveSeen[i] = r.Alive
			completed++
		})
		// The first half is still waiting until the sequence numbers run
		// out; from then on each transmission fails exactly the oldest.
		if want := max(0, i+1-seqSpace); completed != want {
			t.Fatalf("after %d transmissions %d probes have completed, want %d", i+1, completed, want)
		}
	}
	clock.Advance(10 * time.Second)
	for i := 0; i < n; i++ {
		if calls[i] != 1 {
			t.Fatalf("probe %d: done called %d times", i, calls[i])
		}
		if want := i >= seqSpace && isAlive(sweep.Nth(i)); aliveSeen[i] != want {
			t.Fatalf("probe %d (%v): alive = %v, want %v", i, sweep.Nth(i), aliveSeen[i], want)
		}
	}
	if st := p.Stats(); st.Sent != uint64(n) || st.Received != seqSpace/16 || st.Malformed != 0 {
		t.Fatalf("stats %+v", st)
	}
	if clock.Pending() != idle {
		t.Fatalf("%d events on the clock with nothing in flight, want %d", clock.Pending(), idle)
	}
}

// TestRealClockProbers drives one prober from several goroutines on the
// real clock, where replies and timeouts run on the runtime's timer
// goroutines while other transmissions are going on. Each goroutine waits
// for its probe to complete before sending the next, so nothing it does
// after a transmission orders that transmission's writes before the reply
// handler's reads: the race detector (make race) sees any state the two
// share without the lock.
func TestRealClockProbers(t *testing.T) {
	fab := fabric.New(simclock.Real{}, fabric.Config{})
	NewResponder(fab, testNet, func(ip dnswire.IPv4) bool { return ip[3]%4 != 0 }, false)
	p, err := NewProber(fab, ProberConfig{Vantage: vantage, Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const workers, each = 4, 32
	var (
		wg    sync.WaitGroup
		alive atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			done := make(chan ProbeResult)
			for i := 0; i < each; i++ {
				ip := testNet.Nth(w*each + i)
				p.Probe(ip, func(r ProbeResult) { done <- r })
				if r := <-done; r.Target != ip {
					t.Errorf("probe of %v completed as %+v", ip, r)
				} else if r.Alive {
					alive.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	// A loaded host may deliver a reply later than 20ms; it may not invent one.
	if up := int64(workers * each * 3 / 4); alive.Load() > up {
		t.Fatalf("%d probes answered, but only %d hosts are up", alive.Load(), up)
	}
	if st := p.Stats(); st.Sent != workers*each || st.Received != uint64(alive.Load()) {
		t.Fatalf("stats %+v with %d alive", st, alive.Load())
	}
}
