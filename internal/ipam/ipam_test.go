package ipam

import (
	"strings"
	"testing"
	"time"

	"rdnsprivacy/internal/dhcp"
	"rdnsprivacy/internal/dhcpwire"
	"rdnsprivacy/internal/dnsserver"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/simclock"
)

var epoch = time.Date(2021, 11, 1, 8, 0, 0, 0, time.UTC)

func newZone(t *testing.T) *dnsserver.Zone {
	t.Helper()
	return dnsserver.NewZone(dnsserver.ZoneConfig{
		Origin:    dnswire.MustName("2.0.192.in-addr.arpa"),
		PrimaryNS: dnswire.MustName("ns1.campus-a.example.edu"),
		Mbox:      dnswire.MustName("hostmaster.campus-a.example.edu"),
	})
}

func grantedEvent(hostname string) dhcp.Event {
	return dhcp.Event{
		Kind:     dhcp.LeaseGranted,
		IP:       dnswire.MustIPv4("192.0.2.10"),
		HostName: hostname,
		CHAddr:   dhcpwire.HardwareAddr{2, 0, 0, 0, 0, 1},
		At:       epoch,
	}
}

func TestCarryOverPublishesClientName(t *testing.T) {
	z := newZone(t)
	u := NewUpdater(Config{
		Policy: PolicyCarryOver,
		Suffix: dnswire.MustName("dyn.campus-a.example.edu"),
	})
	if err := u.AttachZone(z); err != nil {
		t.Fatal(err)
	}
	u.LeaseEvent(grantedEvent("Brian's iPhone"))
	target, ok := z.LookupPTR(dnswire.ReverseName(dnswire.MustIPv4("192.0.2.10")))
	if !ok {
		t.Fatal("PTR not published")
	}
	if target != dnswire.MustName("brians-iphone.dyn.campus-a.example.edu") {
		t.Fatalf("target = %q", target)
	}
}

func TestCarryOverRemovesOnRelease(t *testing.T) {
	z := newZone(t)
	u := NewUpdater(Config{Policy: PolicyCarryOver, Suffix: dnswire.MustName("dyn.example.edu")})
	u.AttachZone(z)
	ev := grantedEvent("brians-mbp")
	u.LeaseEvent(ev)
	ev.Kind = dhcp.LeaseReleased
	u.LeaseEvent(ev)
	if _, ok := z.LookupPTR(dnswire.ReverseName(ev.IP)); ok {
		t.Fatal("PTR survived release")
	}
	st := u.Stats()
	if st.Published != 1 || st.Removed != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCarryOverRemovesOnExpiry(t *testing.T) {
	z := newZone(t)
	u := NewUpdater(Config{Policy: PolicyCarryOver, Suffix: dnswire.MustName("dyn.example.edu")})
	u.AttachZone(z)
	ev := grantedEvent("brians-ipad")
	u.LeaseEvent(ev)
	ev.Kind = dhcp.LeaseExpired
	u.LeaseEvent(ev)
	if _, ok := z.LookupPTR(dnswire.ReverseName(ev.IP)); ok {
		t.Fatal("PTR survived expiry")
	}
}

func TestCarryOverPrefersClientFQDN(t *testing.T) {
	z := newZone(t)
	u := NewUpdater(Config{Policy: PolicyCarryOver, Suffix: dnswire.MustName("dyn.example.edu")})
	u.AttachZone(z)
	ev := grantedEvent("Other-Name")
	ev.ClientFQDN = &dhcpwire.ClientFQDN{
		Flags: dhcpwire.FQDNServerUpdates,
		Name:  "brians-galaxy-note9.whatever.example.com",
	}
	u.LeaseEvent(ev)
	target, _ := z.LookupPTR(dnswire.ReverseName(ev.IP))
	if target != dnswire.MustName("brians-galaxy-note9.dyn.example.edu") {
		t.Fatalf("target = %q", target)
	}
}

func TestHonorClientNoUpdate(t *testing.T) {
	z := newZone(t)
	u := NewUpdater(Config{
		Policy:              PolicyCarryOver,
		Suffix:              dnswire.MustName("dyn.example.edu"),
		HonorClientNoUpdate: true,
	})
	u.AttachZone(z)
	ev := grantedEvent("private-host")
	ev.ClientFQDN = &dhcpwire.ClientFQDN{Flags: dhcpwire.FQDNNoUpdate, Name: "private-host"}
	u.LeaseEvent(ev)
	if _, ok := z.LookupPTR(dnswire.ReverseName(ev.IP)); ok {
		t.Fatal("PTR published despite N bit")
	}
	if u.Stats().Suppressed != 1 {
		t.Fatalf("stats = %+v", u.Stats())
	}
	// Without the honor flag the same event leaks.
	u2 := NewUpdater(Config{Policy: PolicyCarryOver, Suffix: dnswire.MustName("dyn.example.edu")})
	u2.AttachZone(z)
	u2.LeaseEvent(ev)
	if _, ok := z.LookupPTR(dnswire.ReverseName(ev.IP)); !ok {
		t.Fatal("PTR not published when N bit is ignored")
	}
}

func TestHashedPolicyHidesName(t *testing.T) {
	z := newZone(t)
	u := NewUpdater(Config{Policy: PolicyHashed, Suffix: dnswire.MustName("dyn.example.edu")})
	u.AttachZone(z)
	ev := grantedEvent("Brians-iPhone")
	u.LeaseEvent(ev)
	target, ok := z.LookupPTR(dnswire.ReverseName(ev.IP))
	if !ok {
		t.Fatal("PTR not published")
	}
	if strings.Contains(string(target), "brian") || strings.Contains(string(target), "iphone") {
		t.Fatalf("hashed target %q leaks the client name", target)
	}
	if !strings.HasPrefix(string(target), "h-") {
		t.Fatalf("target = %q, want h-<hex> prefix", target)
	}
	// Stable per client: the same event hashes identically.
	z2 := newZone(t)
	u2 := NewUpdater(Config{Policy: PolicyHashed, Suffix: dnswire.MustName("dyn.example.edu")})
	u2.AttachZone(z2)
	u2.LeaseEvent(ev)
	target2, _ := z2.LookupPTR(dnswire.ReverseName(ev.IP))
	if target != target2 {
		t.Fatalf("hash not stable: %q vs %q", target, target2)
	}
}

func TestHashedStillRevealsPresence(t *testing.T) {
	// The paper notes hashing hides the identifier but record *presence*
	// still exposes dynamics. Verify the record appears and disappears.
	z := newZone(t)
	u := NewUpdater(Config{Policy: PolicyHashed, Suffix: dnswire.MustName("dyn.example.edu")})
	u.AttachZone(z)
	ev := grantedEvent("x")
	u.LeaseEvent(ev)
	if z.Len() != 1 {
		t.Fatal("no record after grant")
	}
	ev.Kind = dhcp.LeaseExpired
	u.LeaseEvent(ev)
	if z.Len() != 0 {
		t.Fatal("record survived expiry")
	}
}

func TestStaticFormPrepopulatesAndIgnoresEvents(t *testing.T) {
	z := newZone(t)
	u := NewUpdater(Config{
		Policy:      PolicyStaticForm,
		Suffix:      dnswire.MustName("campus-a.example.edu"),
		StaticPools: []dnswire.Prefix{dnswire.MustPrefix("192.0.2.0/24")},
	})
	if err := u.AttachZone(z); err != nil {
		t.Fatal(err)
	}
	if z.Len() != 256 {
		t.Fatalf("zone has %d names, want 256", z.Len())
	}
	target, ok := z.LookupPTR(dnswire.ReverseName(dnswire.MustIPv4("192.0.2.10")))
	if !ok {
		t.Fatal("static PTR missing")
	}
	if target != dnswire.MustName("host-2-10.dynamic.campus-a.example.edu") {
		t.Fatalf("target = %q", target)
	}
	// Lease events change nothing.
	serial := zoneSerial(t, z)
	u.LeaseEvent(grantedEvent("Brians-iPhone"))
	ev := grantedEvent("Brians-iPhone")
	ev.Kind = dhcp.LeaseExpired
	u.LeaseEvent(ev)
	if zoneSerial(t, z) != serial {
		t.Fatal("static-form zone changed on lease events")
	}
}

func TestPolicyNonePublishesNothing(t *testing.T) {
	z := newZone(t)
	u := NewUpdater(Config{Policy: PolicyNone, Suffix: dnswire.MustName("x.example")})
	u.AttachZone(z)
	u.LeaseEvent(grantedEvent("Brians-iPhone"))
	if z.Len() != 0 {
		t.Fatal("PolicyNone published a record")
	}
}

func TestEventOutsideAttachedZones(t *testing.T) {
	z := newZone(t)
	u := NewUpdater(Config{Policy: PolicyCarryOver, Suffix: dnswire.MustName("x.example")})
	u.AttachZone(z)
	ev := grantedEvent("h")
	ev.IP = dnswire.MustIPv4("203.0.113.9")
	u.LeaseEvent(ev)
	if u.Stats().NoZone != 1 {
		t.Fatalf("stats = %+v", u.Stats())
	}
}

func TestEmptyHostNameFallsBack(t *testing.T) {
	z := newZone(t)
	u := NewUpdater(Config{Policy: PolicyCarryOver, Suffix: dnswire.MustName("dyn.example.edu")})
	u.AttachZone(z)
	u.LeaseEvent(grantedEvent(""))
	target, ok := z.LookupPTR(dnswire.ReverseName(dnswire.MustIPv4("192.0.2.10")))
	if !ok {
		t.Fatal("no PTR for anonymous client")
	}
	if target != dnswire.MustName("client-2-10.dyn.example.edu") {
		t.Fatalf("target = %q", target)
	}
}

func TestEndToEndWithDHCPServer(t *testing.T) {
	// Full pipeline: DHCP client joins -> server event -> IPAM -> zone.
	clock := simclock.NewSimulated(epoch)
	z := newZone(t)
	u := NewUpdater(Config{Policy: PolicyCarryOver, Suffix: dnswire.MustName("dyn.campus-a.example.edu")})
	u.AttachZone(z)
	srv := dhcp.NewServer(clock, dhcp.ServerConfig{
		ServerIP:  dnswire.MustIPv4("192.0.2.1"),
		Pools:     []dnswire.Prefix{dnswire.MustPrefix("192.0.2.0/24")},
		LeaseTime: time.Hour,
		Sink:      u,
	})
	cl := dhcp.NewClient(clock, srv, dhcp.ClientConfig{
		CHAddr:   dhcpwire.HardwareAddr{2, 0, 0, 0, 0, 9},
		HostName: "Brians-iPhone",
	})
	ip, err := cl.Join()
	if err != nil {
		t.Fatal(err)
	}
	target, ok := z.LookupPTR(dnswire.ReverseName(ip))
	if !ok {
		t.Fatal("join did not publish a PTR")
	}
	if target != dnswire.MustName("brians-iphone.dyn.campus-a.example.edu") {
		t.Fatalf("target = %q", target)
	}
	// Silent leave: the record lingers until expiry, then vanishes.
	cl.Leave()
	if _, ok := z.LookupPTR(dnswire.ReverseName(ip)); !ok {
		t.Fatal("PTR vanished before lease expiry")
	}
	clock.Advance(61 * time.Minute)
	if _, ok := z.LookupPTR(dnswire.ReverseName(ip)); ok {
		t.Fatal("PTR survived lease expiry")
	}
}

func TestSanitizeLabel(t *testing.T) {
	tests := []struct{ in, want string }{
		{"Brian's iPhone", "brians-iphone"},
		{"Brians-MBP", "brians-mbp"},
		{"Brian’s iPad", "brians-ipad"},
		{"DESKTOP-ABC123", "desktop-abc123"},
		{"jane_doe laptop", "jane-doe-laptop"},
		{"host.local", "host-local"},
		{"--weird--", "weird"},
		{"a  b", "a-b"},
		{"日本語のiPhone", "iphone"},
		{"", ""},
		{"!!!", ""},
		{strings.Repeat("x", 100), strings.Repeat("x", 63)},
	}
	for _, tc := range tests {
		if got := SanitizeLabel(tc.in); got != tc.want {
			t.Errorf("SanitizeLabel(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	cases := map[Policy]string{
		PolicyCarryOver:  "carry-over",
		PolicyHashed:     "hashed",
		PolicyStaticForm: "static-form",
		PolicyNone:       "none",
		Policy(9):        "policy9",
	}
	for p, want := range cases {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), want)
		}
	}
}

// zoneSerial reads z's SOA serial the way a resolver would: from the answer
// to an SOA query put to a server holding z.
func zoneSerial(t *testing.T, z *dnsserver.Zone) uint32 {
	t.Helper()
	srv := dnsserver.NewServer()
	srv.AddZone(z)
	q, err := dnswire.NewQuery(1, z.Origin(), dnswire.TypeSOA).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnswire.Unmarshal(srv.HandleQuery(q))
	if err != nil || len(resp.Answers) != 1 {
		t.Fatalf("SOA query: %v, %+v", err, resp)
	}
	return resp.Answers[0].Data.(dnswire.SOAData).Serial
}

// Stats returns a snapshot of updater counters.
func (u *Updater) Stats() Stats {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.stats
}
