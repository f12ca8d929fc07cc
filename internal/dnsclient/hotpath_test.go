package dnsclient

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"rdnsprivacy/internal/dnsserver"
	"rdnsprivacy/internal/dnswire"
)

func hotPathZone(third byte) *dnsserver.Zone {
	return dnsserver.NewZone(dnsserver.ZoneConfig{
		Origin:    dnswire.MustName(fmt.Sprintf("%d.0.192.in-addr.arpa", third)),
		PrimaryNS: dnswire.MustName("ns1.example.edu"),
		Mbox:      dnswire.MustName("hostmaster.example.edu"),
	})
}

// The probe budget, where tier-1 sees it: one round trip through
// ServerSource and Server allocates only what outlives it — the server's
// reply for an absence; the reply, the PTR target, the question's Name and
// the boxed Response for a found answer.
func TestServerSourceRoundTripAllocationBudget(t *testing.T) {
	srv := dnsserver.NewServer()
	zone := hotPathZone(2)
	srv.AddZone(zone)
	found, absent := dnswire.MustIPv4("192.0.2.10"), dnswire.MustIPv4("192.0.2.99")
	if err := zone.SetPTR(dnswire.ReverseName(found), dnswire.MustName("brians-iphone.dyn.example.edu")); err != nil {
		t.Fatal(err)
	}
	src := &ServerSource{Server: srv}
	ctx := context.Background()

	res := src.LookupPTR(ctx, absent)
	if !res.Absent() || res.Meta != nil {
		t.Fatalf("absent probe = %+v, want an absence with no Meta", res)
	}
	if got := testing.AllocsPerRun(200, func() { src.LookupPTR(ctx, absent) }); got > 2 {
		t.Errorf("NXDOMAIN round trip allocates %.1f objects, budget 2", got)
	}

	res = src.LookupPTR(ctx, found)
	resp, ok := res.Meta.(Response)
	if !res.Found || res.Name != "brians-iphone.dyn.example.edu." || !ok {
		t.Fatalf("found probe = %+v", res)
	}
	if resp.Outcome != OutcomeSuccess || resp.PTR != res.Name || resp.Attempts != 1 ||
		resp.Question.Name != dnswire.ReverseName(found) || resp.Question.Type != dnswire.TypePTR {
		t.Fatalf("found probe's Response = %+v", resp)
	}
	if got := testing.AllocsPerRun(200, func() { src.LookupPTR(ctx, found) }); got > 4 {
		t.Errorf("found round trip allocates %.1f objects, budget 4", got)
	}
}

// What Meta carries, by outcome: errors that came with a reply keep the
// whole Response (the resilience layer and rdnsscan read it), absences
// carry none.
func TestServerSourceMetaByOutcome(t *testing.T) {
	srv := dnsserver.NewServer()
	zone := hotPathZone(2)
	srv.AddZone(zone)
	nodata := dnswire.MustIPv4("192.0.2.12")
	if err := zone.SetA(dnswire.ReverseName(nodata), nodata); err != nil {
		t.Fatal(err)
	}
	src := &ServerSource{Server: srv}
	ctx := context.Background()

	if res := src.LookupPTR(ctx, nodata); !res.Absent() || res.Meta != nil {
		t.Fatalf("NODATA probe = %+v, want an absence with no Meta", res)
	}
	res := src.LookupPTR(ctx, dnswire.MustIPv4("192.0.3.1")) // no such zone
	resp, ok := res.Meta.(Response)
	if !errors.Is(res.Err, &Error{Kind: KindRefused}) || !ok || resp.Outcome != OutcomeRefused || resp.RCode != dnswire.RCodeRefused {
		t.Fatalf("REFUSED probe = %+v", res)
	}
	srv.SetFailureMode(dnsserver.FailureMode{DropRate: 1})
	if res := src.LookupPTR(ctx, nodata); !errors.Is(res.Err, ErrTimeout) {
		t.Fatalf("dropped probe = %+v, want a timeout", res)
	}
}

// Many goroutines share one ServerSource and one Server while zones are
// attached and PTRs flipped under them. Every reply must be whole and
// right: an address is answered with one of the names it has held or with
// an absence, never with another address's name, a torn name or a parse
// error — which is what a pooled buffer aliasing a live query or reply
// would produce. Run under -race (make verify does).
func TestServerSourceSharedUnderMutation(t *testing.T) {
	srv := dnsserver.NewServer()
	zones := []*dnsserver.Zone{hotPathZone(2)}
	srv.AddZone(zones[0])
	src := &ServerSource{Server: srv}
	nameFor := func(ip dnswire.IPv4, gen int) dnswire.Name {
		return dnswire.MustName(fmt.Sprintf("host-%d-%d-gen%d.dyn.example.edu", ip[2], ip[3], gen&1))
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	const probers = 8
	errs := make(chan error, probers)
	for g := 0; g < probers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				ip := dnswire.IPv4{192, 0, byte(2 + (i+g)%4), byte(i * 7)}
				res := src.LookupPTR(context.Background(), ip)
				switch {
				case res.Found:
					if res.Name != nameFor(ip, 0) && res.Name != nameFor(ip, 1) {
						errs <- fmt.Errorf("%s answered %q", ip, res.Name)
						return
					}
				case res.Err != nil:
					// Zones 3..5 are attached mid-run: REFUSED until then.
					if !errors.Is(res.Err, &Error{Kind: KindRefused}) || ip[2] == 2 {
						errs <- fmt.Errorf("%s: %v", ip, res.Err)
						return
					}
				}
			}
		}(g)
	}
	for gen := 0; gen < 40; gen++ {
		if gen%10 == 5 && len(zones) < 4 {
			z := hotPathZone(byte(2 + len(zones)))
			zones = append(zones, z)
			srv.AddZone(z)
		}
		for zi, z := range zones {
			for host := 0; host < 256; host += 3 {
				ip := dnswire.IPv4{192, 0, byte(2 + zi), byte(host)}
				if (host+gen)%5 == 0 {
					z.RemovePTR(dnswire.ReverseName(ip))
				} else if err := z.SetPTR(dnswire.ReverseName(ip), nameFor(ip, gen)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cancel()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// The socket client's query and 4 KiB read buffers belong to its pooled
// sockets, and a lookup borrows a socket: over loopback it allocates the
// question's name and the server's reply, not buffers and not a socket.
func TestUDPClientLookupBorrowsItsBuffers(t *testing.T) {
	srv := dnsserver.NewServer()
	zone := hotPathZone(2)
	srv.AddZone(zone)
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(conn) }()
	defer func() {
		conn.Close()
		<-served
	}()
	client := &UDPClient{Server: conn.LocalAddr().String(), Timeout: 2 * time.Second, Retries: 1}
	defer client.Close()
	ip := dnswire.MustIPv4("192.0.2.99")
	resp, err := client.LookupPTRContext(context.Background(), ip)
	if err != nil || resp.Outcome != OutcomeNXDomain {
		t.Fatalf("lookup = %+v, %v", resp, err)
	}
	totalAlloc := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	before := totalAlloc()
	const lookups = 200
	for i := 0; i < lookups; i++ {
		if _, err := client.LookupPTRContext(context.Background(), ip); err != nil {
			t.Fatal(err)
		}
	}
	// Both ends run in this process. Dialling a socket per lookup cost some
	// 840 B here; a read buffer per lookup, before that, 4 KiB more.
	perLookup := (totalAlloc() - before) / lookups
	t.Logf("a UDP lookup allocates %d B, client and server together", perLookup)
	if perLookup > 300 {
		t.Errorf("budget 300 B: is every lookup dialling a socket again?")
	}
	if dials := client.Dials(); dials != 1 {
		t.Errorf("%d lookups in a row dialled %d sockets, want 1", lookups+1, dials)
	}
}
