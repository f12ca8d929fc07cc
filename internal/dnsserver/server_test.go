package dnsserver

import (
	"errors"
	"net"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/simclock"
)

func testZone(t *testing.T) *Zone {
	t.Helper()
	return NewZone(ZoneConfig{
		Origin:    dnswire.MustName("2.0.192.in-addr.arpa"),
		PrimaryNS: dnswire.MustName("ns1.example.edu"),
		Mbox:      dnswire.MustName("hostmaster.example.edu"),
	})
}

func TestZoneSetLookupRemovePTR(t *testing.T) {
	z := testZone(t)
	name := dnswire.ReverseName(dnswire.MustIPv4("192.0.2.10"))
	target := dnswire.MustName("brians-iphone.dyn.example.edu")

	if _, ok := z.LookupPTR(name); ok {
		t.Fatal("empty zone returned a PTR")
	}
	if err := z.SetPTR(name, target); err != nil {
		t.Fatal(err)
	}
	got, ok := z.LookupPTR(name)
	if !ok || got != target {
		t.Fatalf("LookupPTR = %q, %v", got, ok)
	}
	// Replace in place.
	target2 := dnswire.MustName("brians-mbp.dyn.example.edu")
	if err := z.SetPTR(name, target2); err != nil {
		t.Fatal(err)
	}
	if got, _ := z.LookupPTR(name); got != target2 {
		t.Fatalf("after replace LookupPTR = %q", got)
	}
	if z.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (replace must not duplicate)", z.Len())
	}
	if !z.RemovePTR(name) {
		t.Fatal("RemovePTR = false")
	}
	if z.RemovePTR(name) {
		t.Fatal("second RemovePTR = true")
	}
	if _, ok := z.LookupPTR(name); ok {
		t.Fatal("PTR survived removal")
	}
}

func TestZoneSerialAdvancesOnChange(t *testing.T) {
	z := testZone(t)
	s0 := serial(z)
	name := dnswire.ReverseName(dnswire.MustIPv4("192.0.2.10"))
	z.SetPTR(name, dnswire.MustName("h.example.edu"))
	s1 := serial(z)
	if s1 <= s0 {
		t.Fatalf("serial did not advance: %d -> %d", s0, s1)
	}
	z.RemovePTR(name)
	if serial(z) <= s1 {
		t.Fatal("serial did not advance on removal")
	}
}

func TestZoneRejectsOutOfZone(t *testing.T) {
	z := testZone(t)
	err := z.SetPTR(dnswire.MustName("10.9.0.192.in-addr.arpa"), dnswire.MustName("h.example.edu"))
	if !errors.Is(err, ErrOutOfZone) {
		t.Fatalf("err = %v, want ErrOutOfZone", err)
	}
}

func query(t *testing.T, s *Server, name dnswire.Name, qtype dnswire.Type) *dnswire.Message {
	t.Helper()
	q := dnswire.NewQuery(77, name, qtype)
	wire, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	respWire := s.HandleQuery(wire)
	if respWire == nil {
		t.Fatal("HandleQuery returned nil")
	}
	resp, err := dnswire.Unmarshal(respWire)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.ID != 77 || !resp.Header.Response {
		t.Fatalf("bad response header %+v", resp.Header)
	}
	return resp
}

func TestServerAnswersPTR(t *testing.T) {
	s := NewServer()
	z := testZone(t)
	s.AddZone(z)
	ip := dnswire.MustIPv4("192.0.2.10")
	z.SetPTR(dnswire.ReverseName(ip), dnswire.MustName("brians-iphone.dyn.example.edu"))

	resp := query(t, s, dnswire.ReverseName(ip), dnswire.TypePTR)
	if resp.Header.RCode != dnswire.RCodeNoError || !resp.Header.Authoritative {
		t.Fatalf("header = %+v", resp.Header)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %d", len(resp.Answers))
	}
	if resp.Answers[0].Data.(dnswire.PTRData).Target != dnswire.MustName("brians-iphone.dyn.example.edu") {
		t.Fatalf("answer = %v", resp.Answers[0])
	}
}

func TestServerNXDomainWithSOA(t *testing.T) {
	s := NewServer()
	s.AddZone(testZone(t))
	resp := query(t, s, dnswire.ReverseName(dnswire.MustIPv4("192.0.2.99")), dnswire.TypePTR)
	if resp.Header.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("RCode = %v, want NXDOMAIN", resp.Header.RCode)
	}
	if len(resp.Authorities) != 1 || resp.Authorities[0].Type != dnswire.TypeSOA {
		t.Fatalf("authorities = %v, want zone SOA", resp.Authorities)
	}
}

func TestServerNodataForWrongType(t *testing.T) {
	s := NewServer()
	z := testZone(t)
	s.AddZone(z)
	ip := dnswire.MustIPv4("192.0.2.10")
	z.SetPTR(dnswire.ReverseName(ip), dnswire.MustName("h.example.edu"))
	resp := query(t, s, dnswire.ReverseName(ip), dnswire.TypeA)
	if resp.Header.RCode != dnswire.RCodeNoError || len(resp.Answers) != 0 {
		t.Fatalf("NODATA response wrong: rcode=%v answers=%d", resp.Header.RCode, len(resp.Answers))
	}
	if len(resp.Authorities) != 1 {
		t.Fatal("NODATA missing SOA authority")
	}
}

func TestServerRefusesOutOfZone(t *testing.T) {
	s := NewServer()
	s.AddZone(testZone(t))
	resp := query(t, s, dnswire.MustName("www.example.com"), dnswire.TypeA)
	if resp.Header.RCode != dnswire.RCodeRefused {
		t.Fatalf("RCode = %v, want REFUSED", resp.Header.RCode)
	}
}

func TestServerApexSOAAndNS(t *testing.T) {
	s := NewServer()
	s.AddZone(testZone(t))
	apex := dnswire.MustName("2.0.192.in-addr.arpa")
	soa := query(t, s, apex, dnswire.TypeSOA)
	if len(soa.Answers) != 1 || soa.Answers[0].Type != dnswire.TypeSOA {
		t.Fatalf("SOA answers = %v", soa.Answers)
	}
	ns := query(t, s, apex, dnswire.TypeNS)
	if len(ns.Answers) != 1 || ns.Answers[0].Data.(dnswire.NSData).Target != dnswire.MustName("ns1.example.edu") {
		t.Fatalf("NS answers = %v", ns.Answers)
	}
}

func TestServerMostSpecificZoneWins(t *testing.T) {
	s := NewServer()
	wide := NewZone(ZoneConfig{
		Origin:    dnswire.MustName("0.192.in-addr.arpa"),
		PrimaryNS: dnswire.MustName("ns.wide.example"),
		Mbox:      dnswire.MustName("h.wide.example"),
	})
	narrow := testZone(t)
	s.AddZone(wide)
	s.AddZone(narrow)
	ip := dnswire.MustIPv4("192.0.2.10")
	narrow.SetPTR(dnswire.ReverseName(ip), dnswire.MustName("host.narrow.example"))
	resp := query(t, s, dnswire.ReverseName(ip), dnswire.TypePTR)
	if len(resp.Answers) != 1 || resp.Answers[0].Data.(dnswire.PTRData).Target != dnswire.MustName("host.narrow.example") {
		t.Fatalf("answers = %v", resp.Answers)
	}
}

func TestServerRejectsMalformed(t *testing.T) {
	s := NewServer()
	s.AddZone(testZone(t))
	if resp := s.HandleQuery([]byte{1, 2, 3}); resp != nil {
		t.Fatal("malformed query got a response")
	}
	if s.Stats().Malformed != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
	// A response message must not be answered (loop prevention).
	m := dnswire.NewQuery(1, dnswire.MustName("x.example"), dnswire.TypeA)
	m.Header.Response = true
	wire, _ := m.Marshal()
	if resp := s.HandleQuery(wire); resp != nil {
		t.Fatal("response message got answered")
	}
}

func TestServerFormErrOnMultipleQuestions(t *testing.T) {
	s := NewServer()
	s.AddZone(testZone(t))
	m := dnswire.NewQuery(5, dnswire.MustName("a.example"), dnswire.TypeA)
	m.Questions = append(m.Questions, dnswire.Question{
		Name: dnswire.MustName("b.example"), Type: dnswire.TypeA, Class: dnswire.ClassIN,
	})
	wire, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	respWire := s.HandleQuery(wire)
	resp, err := dnswire.Unmarshal(respWire)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeFormErr {
		t.Fatalf("RCode = %v, want FORMERR", resp.Header.RCode)
	}
}

func sendUpdate(t *testing.T, s *Server, m *dnswire.Message) *dnswire.Message {
	t.Helper()
	wire, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	respWire := s.HandleQuery(wire)
	if respWire == nil {
		t.Fatal("no response to UPDATE")
	}
	resp, err := dnswire.Unmarshal(respWire)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestUpdateAddsPTR(t *testing.T) {
	s := NewServer()
	z := testZone(t)
	s.AddZone(z)
	ip := dnswire.MustIPv4("192.0.2.42")
	upd := dnswire.NewUpdate(9, z.Origin())
	upd.AddRR(dnswire.Record{
		Name: dnswire.ReverseName(ip), Type: dnswire.TypePTR,
		Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.PTRData{Target: dnswire.MustName("brians-mbp.dyn.example.edu")},
	})
	resp := sendUpdate(t, s, upd)
	if resp.Header.RCode != dnswire.RCodeNoError {
		t.Fatalf("RCode = %v", resp.Header.RCode)
	}
	got, ok := z.LookupPTR(dnswire.ReverseName(ip))
	if !ok || got != dnswire.MustName("brians-mbp.dyn.example.edu") {
		t.Fatalf("PTR = %q, %v", got, ok)
	}
	if s.Stats().Updates != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestUpdateDeletesRRset(t *testing.T) {
	s := NewServer()
	z := testZone(t)
	s.AddZone(z)
	ip := dnswire.MustIPv4("192.0.2.42")
	z.SetPTR(dnswire.ReverseName(ip), dnswire.MustName("h.example.edu"))

	upd := dnswire.NewUpdate(10, z.Origin())
	upd.DeleteRRset(dnswire.ReverseName(ip), dnswire.TypePTR)
	resp := sendUpdate(t, s, upd)
	if resp.Header.RCode != dnswire.RCodeNoError {
		t.Fatalf("RCode = %v", resp.Header.RCode)
	}
	if _, ok := z.LookupPTR(dnswire.ReverseName(ip)); ok {
		t.Fatal("PTR survived delete")
	}
}

func TestUpdateDeleteName(t *testing.T) {
	s := NewServer()
	z := testZone(t)
	s.AddZone(z)
	ip := dnswire.MustIPv4("192.0.2.43")
	z.SetPTR(dnswire.ReverseName(ip), dnswire.MustName("h.example.edu"))
	upd := dnswire.NewUpdate(11, z.Origin())
	upd.DeleteRRset(dnswire.ReverseName(ip), dnswire.TypeANY)
	if resp := sendUpdate(t, s, upd); resp.Header.RCode != dnswire.RCodeNoError {
		t.Fatalf("RCode = %v", resp.Header.RCode)
	}
	if _, ok := z.LookupPTR(dnswire.ReverseName(ip)); ok {
		t.Fatal("PTR survived delete-name")
	}
}

func TestUpdateAtomicOnBadOp(t *testing.T) {
	// One good add plus one out-of-zone record: nothing may be applied.
	s := NewServer()
	z := testZone(t)
	s.AddZone(z)
	ip := dnswire.MustIPv4("192.0.2.42")
	upd := dnswire.NewUpdate(12, z.Origin())
	upd.AddRR(dnswire.Record{
		Name: dnswire.ReverseName(ip), Type: dnswire.TypePTR,
		Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.PTRData{Target: dnswire.MustName("h.example.edu")},
	})
	upd.AddRR(dnswire.Record{
		Name: dnswire.MustName("9.9.9.9.in-addr.arpa"), Type: dnswire.TypePTR,
		Class: dnswire.ClassIN, TTL: 300,
		Data: dnswire.PTRData{Target: dnswire.MustName("x.example.edu")},
	})
	resp := sendUpdate(t, s, upd)
	if resp.Header.RCode != dnswire.RCodeFormErr {
		t.Fatalf("RCode = %v, want FORMERR", resp.Header.RCode)
	}
	if _, ok := z.LookupPTR(dnswire.ReverseName(ip)); ok {
		t.Fatal("partial update applied; updates must be atomic")
	}
}

func TestUpdateUnknownZoneRefused(t *testing.T) {
	s := NewServer()
	s.AddZone(testZone(t))
	upd := dnswire.NewUpdate(13, dnswire.MustName("9.9.9.in-addr.arpa"))
	upd.DeleteRRset(dnswire.MustName("1.9.9.9.in-addr.arpa"), dnswire.TypeANY)
	if resp := sendUpdate(t, s, upd); resp.Header.RCode != dnswire.RCodeRefused {
		t.Fatalf("RCode = %v, want REFUSED", resp.Header.RCode)
	}
}

func TestUpdatePolicyRefused(t *testing.T) {
	s := NewServer()
	z := testZone(t)
	s.AddZone(z)
	s.SetUpdatePolicy(UpdatesRefused)
	upd := dnswire.NewUpdate(14, z.Origin())
	upd.DeleteRRset(dnswire.ReverseName(dnswire.MustIPv4("192.0.2.42")), dnswire.TypeANY)
	if resp := sendUpdate(t, s, upd); resp.Header.RCode != dnswire.RCodeRefused {
		t.Fatalf("RCode = %v, want REFUSED", resp.Header.RCode)
	}
}

func TestUpdatePrerequisitesNotImplemented(t *testing.T) {
	s := NewServer()
	z := testZone(t)
	s.AddZone(z)
	upd := dnswire.NewUpdate(15, z.Origin())
	upd.Answers = append(upd.Answers, dnswire.Record{
		Name: z.Origin(), Type: dnswire.TypeANY, Class: dnswire.ClassANY,
		Data: dnswire.RawData{RType: dnswire.TypeANY},
	})
	if resp := sendUpdate(t, s, upd); resp.Header.RCode != dnswire.RCodeNotImp {
		t.Fatalf("RCode = %v, want NOTIMP", resp.Header.RCode)
	}
}

func TestServerFailureInjection(t *testing.T) {
	s := NewServer()
	s.AddZone(testZone(t))
	s.SetFailureMode(FailureMode{ServFailRate: 1.0})
	resp := query(t, s, dnswire.ReverseName(dnswire.MustIPv4("192.0.2.1")), dnswire.TypePTR)
	if resp.Header.RCode != dnswire.RCodeServFail {
		t.Fatalf("RCode = %v, want SERVFAIL", resp.Header.RCode)
	}
	s.SetFailureMode(FailureMode{DropRate: 1.0})
	q := dnswire.NewQuery(1, dnswire.ReverseName(dnswire.MustIPv4("192.0.2.1")), dnswire.TypePTR)
	wire, _ := q.Marshal()
	if got := s.HandleQuery(wire); got != nil {
		t.Fatal("DropRate=1 still answered")
	}
}

func TestServerOverFabric(t *testing.T) {
	clock := simclock.NewSimulated(time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC))
	fab := fabric.New(clock, fabric.Config{Latency: time.Millisecond})
	s := NewServer()
	z := testZone(t)
	s.AddZone(z)
	ip := dnswire.MustIPv4("192.0.2.10")
	z.SetPTR(dnswire.ReverseName(ip), dnswire.MustName("host.example.edu"))

	srvAddr := fabric.Addr{IP: dnswire.MustIPv4("192.0.2.53"), Port: 53}
	if _, err := s.AttachFabric(fab, srvAddr); err != nil {
		t.Fatal(err)
	}
	var got *dnswire.Message
	cl, err := fab.Bind(fabric.Addr{IP: dnswire.MustIPv4("198.51.100.1"), Port: 4000}, func(dg fabric.Datagram) {
		m, err := dnswire.Unmarshal(dg.Payload)
		if err != nil {
			t.Errorf("bad response: %v", err)
			return
		}
		got = m
	})
	if err != nil {
		t.Fatal(err)
	}
	qw, _ := dnswire.NewQuery(9, dnswire.ReverseName(ip), dnswire.TypePTR).Marshal()
	cl.Send(srvAddr, qw)
	clock.Advance(10 * time.Millisecond)
	if got == nil {
		t.Fatal("no response over fabric")
	}
	if len(got.Answers) != 1 {
		t.Fatalf("answers = %v", got.Answers)
	}
}

func TestServerOverRealUDP(t *testing.T) {
	s := NewServer()
	z := testZone(t)
	s.AddZone(z)
	ip := dnswire.MustIPv4("192.0.2.10")
	z.SetPTR(dnswire.ReverseName(ip), dnswire.MustName("host.example.edu"))

	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP available: %v", err)
	}
	defer conn.Close()
	done := make(chan error, 1)
	go func() { done <- s.Serve(conn) }()

	client, err := net.Dial("udp", conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	qw, _ := dnswire.NewQuery(3, dnswire.ReverseName(ip), dnswire.TypePTR).Marshal()
	if _, err := client.Write(qw); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	n, err := client.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnswire.Unmarshal(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Data.(dnswire.PTRData).Target != dnswire.MustName("host.example.edu") {
		t.Fatalf("answers = %v", resp.Answers)
	}
	conn.Close()
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
}

// serial returns the zone's current SOA serial.
func serial(z *Zone) uint32 {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.serial
}
