package dnsserver

import (
	"sync"
	"testing"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/faultsim"
)

func failureTestServer(t *testing.T) (*Server, []dnswire.IPv4) {
	t.Helper()
	prefix := dnswire.MustPrefix("10.77.0.0/24")
	origin, err := dnswire.ReverseZoneFor24(prefix)
	if err != nil {
		t.Fatal(err)
	}
	zone := NewZone(ZoneConfig{
		Origin:    origin,
		PrimaryNS: dnswire.MustName("ns1.fail.test"),
		Mbox:      dnswire.MustName("hostmaster.fail.test"),
	})
	srv := NewServer()
	srv.AddZone(zone)
	var ips []dnswire.IPv4
	for i := 1; i <= 64; i++ {
		ip := prefix.Nth(i)
		name := dnswire.MustName("host-" + ip.String() + ".fail.test")
		if err := zone.SetPTR(dnswire.ReverseName(ip), name); err != nil {
			t.Fatal(err)
		}
		ips = append(ips, ip)
	}
	return srv, ips
}

func queryOutcome(t *testing.T, srv *Server, ip dnswire.IPv4, id uint16) (dropped bool, rcode dnswire.RCode) {
	t.Helper()
	return askName(t, srv, dnswire.ReverseName(ip), id)
}

// askName sends one PTR query for name and reports whether the server
// dropped it, or else the reply's RCode.
func askName(t *testing.T, srv *Server, name dnswire.Name, id uint16) (dropped bool, rcode dnswire.RCode) {
	t.Helper()
	wire, err := dnswire.NewQuery(id, name, dnswire.TypePTR).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	reply := srv.HandleQuery(wire)
	if reply == nil {
		return true, 0
	}
	msg, err := dnswire.Unmarshal(reply)
	if err != nil {
		t.Fatal(err)
	}
	return false, msg.Header.RCode
}

// dropping returns an injector that drops rate of the queries, over every
// address.
func dropping(rate float64, seed int64) *faultsim.Injector {
	return faultsim.New(nil, seed, faultsim.Profile{Loss: rate})
}

// TestInjectorDeterministicPerQuery drives the same query sequence
// through two identically seeded servers and requires identical
// decisions, plus different decisions across retransmissions of the same
// name (so client retries can recover from partial drop rates).
func TestInjectorDeterministicPerQuery(t *testing.T) {
	run := func() []bool {
		srv, ips := failureTestServer(t)
		srv.SetInjector(dropping(0.5, 42))
		var out []bool
		for attempt := 0; attempt < 4; attempt++ {
			for _, ip := range ips {
				dropped, _ := queryOutcome(t, srv, ip, uint16(attempt+1))
				out = append(out, dropped)
			}
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identically seeded runs", i)
		}
	}
	// Some query must be dropped on the first attempt yet answered on a
	// later one: retransmissions draw fresh decisions.
	n := len(a) / 4
	recovered := false
	for i := 0; i < n; i++ {
		if a[i] && (!a[n+i] || !a[2*n+i] || !a[3*n+i]) {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatal("no dropped query ever recovered on retransmission")
	}
}

// TestInjectorOrderIndependent interleaves two names' queries in two
// different orders; each name's decision sequence must not change.
func TestInjectorOrderIndependent(t *testing.T) {
	seqFor := func(first, second int) (a, b []bool) {
		srv, ips := failureTestServer(t)
		srv.SetInjector(dropping(0.5, 7))
		// Interleave 8 queries for each of two addresses, order varying.
		for i := 0; i < 8; i++ {
			if first == 0 {
				d0, _ := queryOutcome(t, srv, ips[0], uint16(i))
				d1, _ := queryOutcome(t, srv, ips[1], uint16(i))
				a, b = append(a, d0), append(b, d1)
			} else {
				d1, _ := queryOutcome(t, srv, ips[1], uint16(i))
				d0, _ := queryOutcome(t, srv, ips[0], uint16(i))
				a, b = append(a, d0), append(b, d1)
			}
		}
		return a, b
	}
	a1, b1 := seqFor(0, 1)
	a2, b2 := seqFor(1, 0)
	for i := range a1 {
		if a1[i] != a2[i] || b1[i] != b2[i] {
			t.Fatalf("per-name decision %d depends on interleaving order", i)
		}
	}
}

// TestSetInjectorConcurrentWithQueries toggles injection while many
// goroutines hammer HandleQuery; run under -race this is the regression
// test for an unsynchronized read of the server's fault hook.
func TestSetInjectorConcurrentWithQueries(t *testing.T) {
	srv, ips := failureTestServer(t)
	wires := make([][]byte, len(ips))
	for i, ip := range ips {
		w, err := dnswire.NewQuery(uint16(i), dnswire.ReverseName(ip), dnswire.TypePTR).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		wires[i] = w
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				srv.HandleQuery(wires[(w*16+i)%len(wires)])
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		srv.SetInjector(faultsim.New(nil, int64(i), faultsim.Profile{Loss: 0.3, ServFailRate: 0.3}))
		srv.SetInjector(nil)
	}
	close(stop)
	wg.Wait()
	// Injection disabled: every query answers NOERROR again.
	for _, ip := range ips {
		dropped, rcode := queryOutcome(t, srv, ip, 999)
		if dropped || rcode != dnswire.RCodeNoError {
			t.Fatalf("after disabling injection: dropped=%v rcode=%v", dropped, rcode)
		}
	}
}
