package dnsserver

import (
	"net"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
)

// The probe budget, where tier-1 sees it: answering a query allocates the
// reply the caller keeps and nothing else, whether the name is there or not.
func TestHandleQueryAllocatesOnlyTheReply(t *testing.T) {
	s := NewServer()
	z := testZone(t)
	s.AddZone(z)
	found := dnswire.MustIPv4("192.0.2.10")
	if err := z.SetPTR(dnswire.ReverseName(found), dnswire.MustName("brians-iphone.dyn.example.edu")); err != nil {
		t.Fatal(err)
	}
	for name, ip := range map[string]dnswire.IPv4{"found": found, "nxdomain": dnswire.MustIPv4("192.0.2.99")} {
		query, err := dnswire.AppendQuery(nil, 7, dnswire.ReverseName(ip), dnswire.TypePTR)
		if err != nil {
			t.Fatal(err)
		}
		if s.HandleQuery(query) == nil {
			t.Fatalf("%s: no reply", name)
		}
		if got := testing.AllocsPerRun(200, func() { s.HandleQuery(query) }); got > 1 {
			t.Errorf("%s: HandleQuery allocates %.1f objects per query, budget 1 (the returned slice)", name, got)
		}
	}
}

// The serve loop, over a real socket: a datagram costs the reply
// HandleQueryUDP returns and nothing for the peer's address — on a
// *net.UDPConn it travels as a netip.AddrPort value.
func TestServeAllocatesOnlyTheReply(t *testing.T) {
	s := NewServer()
	s.AddZone(testZone(t))
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(conn) }()
	defer func() {
		conn.Close()
		if err := <-served; err != nil {
			t.Errorf("Serve = %v", err)
		}
	}()
	client, err := net.Dial("udp", conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	query, err := dnswire.AppendQuery(nil, 7, dnswire.ReverseName(dnswire.MustIPv4("192.0.2.99")), dnswire.TypePTR)
	if err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 512)
	roundTrip := func() {
		client.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := client.Write(query); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Read(reply); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	// AllocsPerRun counts the whole process, so the server's goroutine is in
	// it; the client's half of the round trip allocates nothing.
	if got := testing.AllocsPerRun(200, roundTrip); got > 1 {
		t.Errorf("a datagram through Serve allocates %.1f objects, budget 1 (the reply)", got)
	}
}

// BenchmarkHandleQuery is the server's half of one probe: a PTR query
// answered NXDOMAIN with the zone's SOA (absent, nearly every probe of a
// sweep) or with its record (found). make bench-check holds it to allocs/op
// and B/op — the reply the caller keeps, and nothing else; its time is the
// sweep workloads' to measure, so it reports no ns/op.
func BenchmarkHandleQuery(b *testing.B) {
	s := NewServer()
	z := NewZone(ZoneConfig{
		Origin:    dnswire.MustName("2.0.192.in-addr.arpa"),
		PrimaryNS: dnswire.MustName("ns1.example.edu"),
		Mbox:      dnswire.MustName("hostmaster.example.edu"),
	})
	s.AddZone(z)
	found := dnswire.MustIPv4("192.0.2.10")
	if err := z.SetPTR(dnswire.ReverseName(found), dnswire.MustName("brians-iphone.dyn.example.edu")); err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		ip    dnswire.IPv4
		rcode dnswire.RCode
	}{{"absent", dnswire.MustIPv4("192.0.2.99"), dnswire.RCodeNXDomain}, {"found", found, dnswire.RCodeNoError}} {
		b.Run(tc.name, func(b *testing.B) {
			query, err := dnswire.AppendQuery(nil, 7, dnswire.ReverseName(tc.ip), dnswire.TypePTR)
			if err != nil {
				b.Fatal(err)
			}
			if v, err := dnswire.Parse(s.HandleQuery(query)); err != nil || v.Header.RCode != tc.rcode {
				b.Fatalf("reply: %v, rcode %v, want %v", err, v.Header.RCode, tc.rcode)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.HandleQuery(query)
			}
			b.ReportMetric(0, "ns/op")
		})
	}
}
