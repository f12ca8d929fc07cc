package dnsserver

import (
	"testing"

	"rdnsprivacy/internal/dnswire"
)

func TestZoneARecords(t *testing.T) {
	z := NewZone(ZoneConfig{
		Origin:    dnswire.MustName("dyn.campus-a.edu"),
		PrimaryNS: dnswire.MustName("ns1.campus-a.edu"),
		Mbox:      dnswire.MustName("hostmaster.campus-a.edu"),
	})
	name := dnswire.MustName("brians-iphone.dyn.campus-a.edu")
	addr := dnswire.MustIPv4("10.0.0.7")
	if _, ok := lookupA(z, name); ok {
		t.Fatal("empty zone returned an A record")
	}
	if err := z.SetA(name, addr); err != nil {
		t.Fatal(err)
	}
	got, ok := lookupA(z, name)
	if !ok || got != addr {
		t.Fatalf("LookupA = %v, %v", got, ok)
	}
	// Replace in place.
	addr2 := dnswire.MustIPv4("10.0.0.8")
	if err := z.SetA(name, addr2); err != nil {
		t.Fatal(err)
	}
	if got, _ := lookupA(z, name); got != addr2 {
		t.Fatalf("after replace = %v", got)
	}
	if z.Len() != 1 {
		t.Fatalf("Len = %d", z.Len())
	}
}

func TestZoneSetARejectsOutOfZone(t *testing.T) {
	z := testZone(t)
	err := z.SetA(dnswire.MustName("host.other.example"), dnswire.MustIPv4("10.0.0.1"))
	if err == nil {
		t.Fatal("out-of-zone A accepted")
	}
}

func TestZoneMixedRecordsAtOneName(t *testing.T) {
	// Forward zones can hold both A and (unusually) PTR-free names; the
	// reverse zone can hold PTR plus A (RFC allows arbitrary types).
	z := testZone(t)
	name := dnswire.ReverseName(dnswire.MustIPv4("192.0.2.9"))
	if err := z.SetPTR(name, dnswire.MustName("h.example.edu")); err != nil {
		t.Fatal(err)
	}
	if err := z.SetA(name, dnswire.MustIPv4("192.0.2.9")); err != nil {
		t.Fatal(err)
	}
	// Removing the PTR must not disturb the A record.
	if !z.RemovePTR(name) {
		t.Fatal("RemovePTR failed")
	}
	if _, ok := lookupA(z, name); !ok {
		t.Fatal("A record lost when PTR removed")
	}
	// RemovePTR again reports nothing to do.
	if z.RemovePTR(name) {
		t.Fatal("RemovePTR removed something twice")
	}
	if z.Len() != 1 {
		t.Fatalf("Len = %d with the A record left", z.Len())
	}
}

func TestHandleQueryUDPPassesNilThrough(t *testing.T) {
	s := NewServer()
	if resp := s.HandleQueryUDP([]byte{1, 2}); resp != nil {
		t.Fatal("malformed query answered")
	}
	// Injected drop must also pass through as nil.
	s.SetFailureMode(FailureMode{DropRate: 1.0})
	z := testZone(t)
	s.AddZone(z)
	q := dnswire.NewQuery(1, dnswire.ReverseName(dnswire.MustIPv4("192.0.2.1")), dnswire.TypePTR)
	wire, _ := q.Marshal()
	if resp := s.HandleQueryUDP(wire); resp != nil {
		t.Fatal("dropped query answered")
	}
}

func TestUpdateWithClassNONE(t *testing.T) {
	s := NewServer()
	z := testZone(t)
	s.AddZone(z)
	ip := dnswire.MustIPv4("192.0.2.44")
	z.SetPTR(dnswire.ReverseName(ip), dnswire.MustName("h.example.edu"))
	upd := dnswire.NewUpdate(20, z.Origin())
	upd.AddRR(dnswire.Record{
		Name: dnswire.ReverseName(ip), Type: dnswire.TypePTR,
		Class: dnswire.ClassNONE, Data: dnswire.RawData{RType: dnswire.TypePTR},
	})
	resp := sendUpdate(t, s, upd)
	if resp.Header.RCode != dnswire.RCodeNoError {
		t.Fatalf("RCode = %v", resp.Header.RCode)
	}
	if _, ok := z.LookupPTR(dnswire.ReverseName(ip)); ok {
		t.Fatal("class-NONE delete did not apply")
	}
}

func TestUpdateRejectsUnsupportedClass(t *testing.T) {
	s := NewServer()
	z := testZone(t)
	s.AddZone(z)
	upd := dnswire.NewUpdate(21, z.Origin())
	upd.AddRR(dnswire.Record{
		Name: dnswire.ReverseName(dnswire.MustIPv4("192.0.2.44")),
		Type: dnswire.TypePTR, Class: dnswire.Class(7),
		Data: dnswire.RawData{RType: dnswire.TypePTR},
	})
	if resp := sendUpdate(t, s, upd); resp.Header.RCode != dnswire.RCodeFormErr {
		t.Fatalf("RCode = %v, want FORMERR", resp.Header.RCode)
	}
}

func TestUpdateRejectsNonPTRAdd(t *testing.T) {
	s := NewServer()
	z := testZone(t)
	s.AddZone(z)
	upd := dnswire.NewUpdate(22, z.Origin())
	upd.AddRR(dnswire.Record{
		Name: dnswire.ReverseName(dnswire.MustIPv4("192.0.2.44")),
		Type: dnswire.TypeTXT, Class: dnswire.ClassIN,
		Data: dnswire.TXTData{Strings: []string{"x"}},
	})
	if resp := sendUpdate(t, s, upd); resp.Header.RCode != dnswire.RCodeNotImp {
		t.Fatalf("RCode = %v, want NOTIMP", resp.Header.RCode)
	}
}

// lookupA returns the A record address at name, if any.
func lookupA(z *Zone, name dnswire.Name) (dnswire.IPv4, bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	for _, rr := range z.records[name] {
		if rr.Type == dnswire.TypeA {
			return dnswire.IPv4(rr.Data.(dnswire.AData).Addr), true
		}
	}
	return dnswire.IPv4{}, false
}
