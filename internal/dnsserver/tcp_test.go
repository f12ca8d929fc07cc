package dnsserver

import (
	"net"
	"testing"

	"rdnsprivacy/internal/dnswire"
)

func TestHandleQueryUDPTruncatesLargeResponses(t *testing.T) {
	old := MaxUDPResponse
	MaxUDPResponse = 64
	defer func() { MaxUDPResponse = old }()

	s := NewServer()
	z := testZone(t)
	s.AddZone(z)
	ip := dnswire.MustIPv4("192.0.2.10")
	z.SetPTR(dnswire.ReverseName(ip), dnswire.MustName("a-rather-long-client-device-name.dyn.campus-a.edu"))

	q := dnswire.NewQuery(3, dnswire.ReverseName(ip), dnswire.TypePTR)
	wire, _ := q.Marshal()
	respWire := s.HandleQueryUDP(wire)
	if respWire == nil {
		t.Fatal("no response")
	}
	resp, err := dnswire.Unmarshal(respWire)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Header.Truncated {
		t.Fatal("TC bit not set on oversized response")
	}
	if len(resp.Answers) != 0 {
		t.Fatal("truncated response still carries answers")
	}
	// Over TCP the same query returns the full answer.
	msgs := s.handleTCP(wire)
	if len(msgs) != 1 {
		t.Fatalf("tcp messages = %d", len(msgs))
	}
	full, err := dnswire.Unmarshal(msgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if full.Header.Truncated || len(full.Answers) != 1 {
		t.Fatalf("tcp answer: tc=%v answers=%d", full.Header.Truncated, len(full.Answers))
	}
}

func TestHandleQueryUDPSmallResponsesUntouched(t *testing.T) {
	s := NewServer()
	z := testZone(t)
	s.AddZone(z)
	ip := dnswire.MustIPv4("192.0.2.10")
	z.SetPTR(dnswire.ReverseName(ip), dnswire.MustName("h.example.edu"))
	q := dnswire.NewQuery(4, dnswire.ReverseName(ip), dnswire.TypePTR)
	wire, _ := q.Marshal()
	resp, err := dnswire.Unmarshal(s.HandleQueryUDP(wire))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Truncated || len(resp.Answers) != 1 {
		t.Fatalf("small response mangled: %+v", resp.Header)
	}
}

func TestAXFRStreamEnvelopes(t *testing.T) {
	// Many records force multiple envelope messages; SOA must open and
	// close the stream.
	s := NewServer()
	z := testZone(t)
	s.AddZone(z)
	s.SetTransferPolicy(true)
	for i := 1; i < 250; i++ {
		ip := dnswire.MustPrefix("192.0.2.0/24").Nth(i)
		name, _ := dnswire.MustName("dyn.campus-a.edu").Prepend("host-" + ip.String())
		_ = name
		target, err := dnswire.MustName("dyn.campus-a.edu").Prepend("h" + ip.String()[8:])
		if err != nil {
			t.Fatal(err)
		}
		z.SetPTR(dnswire.ReverseName(ip), target)
	}
	q := dnswire.NewQuery(9, z.Origin(), dnswire.TypeAXFR)
	wire, _ := q.Marshal()
	msgs := s.handleTCP(wire)
	if len(msgs) < 2 {
		t.Fatalf("envelopes = %d, want several", len(msgs))
	}
	soa, ptr := 0, 0
	var first, last dnswire.Record
	for i, m := range msgs {
		parsed, err := dnswire.Unmarshal(m)
		if err != nil {
			t.Fatal(err)
		}
		for j, rr := range parsed.Answers {
			if i == 0 && j == 0 {
				first = rr
			}
			last = rr
			switch rr.Type {
			case dnswire.TypeSOA:
				soa++
			case dnswire.TypePTR:
				ptr++
			}
		}
	}
	if soa != 2 {
		t.Fatalf("SOA count = %d, want 2", soa)
	}
	if ptr != 249 {
		t.Fatalf("PTR count = %d, want 249", ptr)
	}
	if first.Type != dnswire.TypeSOA || last.Type != dnswire.TypeSOA {
		t.Fatal("stream not SOA-delimited")
	}
}

func TestAXFRRefusedWithoutPolicy(t *testing.T) {
	s := NewServer()
	z := testZone(t)
	s.AddZone(z)
	q := dnswire.NewQuery(9, z.Origin(), dnswire.TypeAXFR)
	wire, _ := q.Marshal()
	msgs := s.handleTCP(wire)
	if len(msgs) != 1 {
		t.Fatalf("messages = %d", len(msgs))
	}
	resp, err := dnswire.Unmarshal(msgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeRefused {
		t.Fatalf("RCode = %v, want REFUSED", resp.Header.RCode)
	}
}

func TestServeTCPOverLoopback(t *testing.T) {
	s := NewServer()
	z := testZone(t)
	s.AddZone(z)
	ip := dnswire.MustIPv4("192.0.2.10")
	z.SetPTR(dnswire.ReverseName(ip), dnswire.MustName("h.example.edu"))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	defer ln.Close()
	go s.ServeTCP(ln)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q := dnswire.NewQuery(5, dnswire.ReverseName(ip), dnswire.TypePTR)
	wire, _ := q.Marshal()
	if err := dnswire.WriteFramed(conn, wire); err != nil {
		t.Fatal(err)
	}
	respWire, err := dnswire.ReadFramed(conn)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnswire.Unmarshal(respWire)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %d", len(resp.Answers))
	}
}
