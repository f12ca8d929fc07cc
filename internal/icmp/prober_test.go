package icmp

import (
	"sync"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/simclock"
)

var (
	epoch   = time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC)
	vantage = dnswire.MustIPv4("198.51.100.1")
)

func newProbeEnv(t *testing.T, cfg ProberConfig) (*Prober, *fabric.Fabric, *simclock.Simulated) {
	t.Helper()
	clock := simclock.NewSimulated(epoch)
	fab := fabric.New(clock, fabric.Config{Latency: 10 * time.Millisecond})
	cfg.Vantage = vantage
	p, err := NewProber(fab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, fab, clock
}

func TestProbeAliveHost(t *testing.T) {
	p, fab, clock := newProbeEnv(t, ProberConfig{ID: 99})
	target := dnswire.MustIPv4("192.0.2.55")
	NewResponder(fab, dnswire.MustPrefix("192.0.2.0/24"), func(ip dnswire.IPv4) bool {
		return ip == target
	}, false)

	var got *ProbeResult
	p.Probe(target, func(r ProbeResult) { got = &r })
	clock.Advance(time.Second)
	if got == nil {
		t.Fatal("probe never completed")
	}
	if !got.Alive {
		t.Fatal("alive host reported dead")
	}
	if got.RTT != 20*time.Millisecond {
		t.Fatalf("RTT = %v, want 20ms (two fabric hops)", got.RTT)
	}
	st := p.Stats()
	if st.Sent != 1 || st.Received != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestProbeDeadHostTimesOut(t *testing.T) {
	p, fab, clock := newProbeEnv(t, ProberConfig{Timeout: 2 * time.Second})
	NewResponder(fab, dnswire.MustPrefix("192.0.2.0/24"), func(dnswire.IPv4) bool { return false }, false)

	var got *ProbeResult
	p.Probe(dnswire.MustIPv4("192.0.2.55"), func(r ProbeResult) { got = &r })
	clock.Advance(time.Second)
	if got != nil {
		t.Fatal("probe completed before timeout")
	}
	clock.Advance(2 * time.Second)
	if got == nil {
		t.Fatal("probe never timed out")
	}
	if got.Alive {
		t.Fatal("dead host reported alive")
	}
}

func TestProbeBlockedIngress(t *testing.T) {
	// Enterprise-B/C in the paper: hosts online but operator drops ICMP.
	p, fab, clock := newProbeEnv(t, ProberConfig{Timeout: time.Second})
	NewResponder(fab, dnswire.MustPrefix("192.0.2.0/24"), func(dnswire.IPv4) bool { return true }, true)

	var got *ProbeResult
	p.Probe(dnswire.MustIPv4("192.0.2.55"), func(r ProbeResult) { got = &r })
	clock.Advance(5 * time.Second)
	if got == nil || got.Alive {
		t.Fatalf("got %+v, want timeout with Alive=false", got)
	}
}

func TestProbeBlocklistOptOut(t *testing.T) {
	p, _, clock := newProbeEnv(t, ProberConfig{
		Blocklist: []dnswire.Prefix{dnswire.MustPrefix("192.0.2.0/24")},
	})
	var got *ProbeResult
	p.Probe(dnswire.MustIPv4("192.0.2.55"), func(r ProbeResult) { got = &r })
	if got == nil {
		t.Fatal("blocklisted probe did not complete immediately")
	}
	if got.Alive {
		t.Fatal("blocklisted target reported alive")
	}
	clock.Advance(time.Minute)
	st := p.Stats()
	if st.Sent != 0 || st.Blocked != 1 {
		t.Fatalf("stats = %+v; traffic sent to opted-out space", st)
	}
}

func TestSweepCompletes(t *testing.T) {
	p, fab, clock := newProbeEnv(t, ProberConfig{Timeout: time.Second})
	// Odd addresses are alive.
	NewResponder(fab, dnswire.MustPrefix("192.0.2.0/24"), func(ip dnswire.IPv4) bool {
		return ip[3]%2 == 1
	}, false)

	var results []ProbeResult
	sweepAll(p, dnswire.MustPrefix("192.0.2.0/24"), func(rs []ProbeResult) { results = rs })
	clock.Advance(5 * time.Second)
	if results == nil {
		t.Fatal("sweep never completed")
	}
	if len(results) != 256 {
		t.Fatalf("got %d results, want 256", len(results))
	}
	alive := 0
	for i, r := range results {
		if r.Target != dnswire.MustPrefix("192.0.2.0/24").Nth(i) {
			t.Fatalf("result %d targets %v", i, r.Target)
		}
		if r.Alive {
			alive++
			if r.Target[3]%2 != 1 {
				t.Fatalf("even host %v alive", r.Target)
			}
		}
	}
	if alive != 128 {
		t.Fatalf("alive = %d, want 128", alive)
	}
}

func TestRateLimitSpreadsProbes(t *testing.T) {
	p, fab, clock := newProbeEnv(t, ProberConfig{RatePerSecond: 10, Timeout: 100 * time.Millisecond})
	NewResponder(fab, dnswire.MustPrefix("192.0.2.0/24"), func(dnswire.IPv4) bool { return true }, false)

	done := 0
	for i := 0; i < 20; i++ {
		p.Probe(dnswire.MustPrefix("192.0.2.0/24").Nth(i), func(ProbeResult) { done++ })
	}
	// At 10 pps, 20 probes take 1.9s to transmit. After 1s only ~11
	// transmissions have happened (slots 0..1s).
	clock.Advance(time.Second)
	if done >= 20 {
		t.Fatalf("all %d probes done after 1s at 10 pps", done)
	}
	clock.Advance(2 * time.Second)
	if done != 20 {
		t.Fatalf("done = %d, want 20", done)
	}
}

func TestProbeIgnoresForeignReplies(t *testing.T) {
	p, fab, clock := newProbeEnv(t, ProberConfig{ID: 5, Timeout: time.Second})
	// A host that answers with the wrong ICMP identifier.
	fab.RegisterICMPPrefix(dnswire.MustPrefix("192.0.2.0/24"), func(src, dst dnswire.IPv4, payload []byte) {
		req, err := Parse(payload)
		if err != nil {
			return
		}
		fake := Echo{Reply: true, ID: req.ID + 1, Seq: req.Seq}
		fab.SendICMP(dst, src, fake.AppendTo(nil))
	})
	var got *ProbeResult
	p.Probe(dnswire.MustIPv4("192.0.2.55"), func(r ProbeResult) { got = &r })
	clock.Advance(5 * time.Second)
	if got == nil {
		t.Fatal("probe never completed")
	}
	if got.Alive {
		t.Fatal("foreign reply accepted")
	}
	if p.Stats().Malformed == 0 {
		t.Fatal("foreign reply not counted as malformed")
	}
}

func TestProbeIgnoresSpoofedSource(t *testing.T) {
	p, fab, clock := newProbeEnv(t, ProberConfig{ID: 5, Timeout: time.Second})
	// A responder that spoofs a different source address in its reply.
	spoof := dnswire.MustIPv4("203.0.113.7")
	fab.RegisterICMPPrefix(dnswire.MustPrefix("192.0.2.0/24"), func(src, dst dnswire.IPv4, payload []byte) {
		req, err := Parse(payload)
		if err != nil {
			return
		}
		fab.SendICMP(spoof, src, ReplyTo(req).AppendTo(nil))
	})
	var got *ProbeResult
	p.Probe(dnswire.MustIPv4("192.0.2.55"), func(r ProbeResult) { got = &r })
	clock.Advance(5 * time.Second)
	if got == nil || got.Alive {
		t.Fatalf("got %+v; spoofed-source reply must not mark target alive", got)
	}
}

func TestVantageCollision(t *testing.T) {
	clock := simclock.NewSimulated(epoch)
	fab := fabric.New(clock, fabric.Config{})
	if _, err := NewProber(fab, ProberConfig{Vantage: vantage}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewProber(fab, ProberConfig{Vantage: vantage}); err == nil {
		t.Fatal("second prober on same vantage accepted")
	}
}

// sweepAll probes every address in prefix and calls done once with all
// results, in address order.
func sweepAll(p *Prober, prefix dnswire.Prefix, done func([]ProbeResult)) {
	n := prefix.NumAddresses()
	results := make([]ProbeResult, n)
	remaining := n
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		i := i
		p.Probe(prefix.Nth(i), func(r ProbeResult) {
			mu.Lock()
			results[i] = r
			remaining--
			last := remaining == 0
			mu.Unlock()
			if last {
				done(results)
			}
		})
	}
}
