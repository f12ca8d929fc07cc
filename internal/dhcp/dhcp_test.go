package dhcp

import (
	"errors"
	"testing"
	"time"

	"rdnsprivacy/internal/dhcpwire"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/simclock"
)

var epoch = time.Date(2021, 11, 1, 8, 0, 0, 0, time.UTC)

type recorder struct{ events []Event }

func (r *recorder) LeaseEvent(ev Event) { r.events = append(r.events, ev) }

func newServerEnv(t *testing.T, leaseTime time.Duration) (*Server, *recorder, *simclock.Simulated) {
	t.Helper()
	clock := simclock.NewSimulated(epoch)
	rec := &recorder{}
	srv := NewServer(clock, ServerConfig{
		ServerIP:  dnswire.MustIPv4("192.0.2.1"),
		Pools:     []dnswire.Prefix{dnswire.MustPrefix("192.0.2.0/24")},
		LeaseTime: leaseTime,
		Sink:      rec,
	})
	return srv, rec, clock
}

func mac(last byte) dhcpwire.HardwareAddr {
	return dhcpwire.HardwareAddr{0x02, 0, 0, 0, 0, last}
}

func TestJoinAllocatesAndEmitsGranted(t *testing.T) {
	srv, rec, clock := newServerEnv(t, time.Hour)
	cl := NewClient(clock, srv, ClientConfig{
		CHAddr: mac(1), HostName: "Brians-iPhone", SendRelease: true,
	})
	ip, err := cl.Join()
	if err != nil {
		t.Fatal(err)
	}
	if !dnswire.MustPrefix("192.0.2.0/24").Contains(ip) {
		t.Fatalf("allocated %v outside pool", ip)
	}
	if ip == dnswire.MustIPv4("192.0.2.0") || ip == dnswire.MustIPv4("192.0.2.255") || ip == dnswire.MustIPv4("192.0.2.1") {
		t.Fatalf("allocated reserved address %v", ip)
	}
	if len(rec.events) != 1 {
		t.Fatalf("events = %d, want 1", len(rec.events))
	}
	ev := rec.events[0]
	if ev.Kind != LeaseGranted || ev.IP != ip || ev.HostName != "Brians-iPhone" {
		t.Fatalf("event = %+v", ev)
	}
	if ev.LeaseDuration != time.Hour {
		t.Fatalf("lease duration = %v", ev.LeaseDuration)
	}
	if got, bound := cl.Bound(); !bound || got != ip {
		t.Fatalf("Bound() = %v, %v", got, bound)
	}
}

func TestDoubleJoinFails(t *testing.T) {
	srv, _, clock := newServerEnv(t, time.Hour)
	cl := NewClient(clock, srv, ClientConfig{CHAddr: mac(1)})
	if _, err := cl.Join(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Join(); !errors.Is(err, ErrAlreadyBound) {
		t.Fatalf("err = %v, want ErrAlreadyBound", err)
	}
}

func TestReleaseEmitsReleased(t *testing.T) {
	srv, rec, clock := newServerEnv(t, time.Hour)
	cl := NewClient(clock, srv, ClientConfig{
		CHAddr: mac(1), HostName: "Brians-mbp", SendRelease: true,
	})
	ip, err := cl.Join()
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Leave(); err != nil {
		t.Fatal(err)
	}
	if len(rec.events) != 2 {
		t.Fatalf("events = %v", rec.events)
	}
	ev := rec.events[1]
	if ev.Kind != LeaseReleased || ev.IP != ip {
		t.Fatalf("event = %+v", ev)
	}
	if _, bound := cl.Bound(); bound {
		t.Fatal("client still bound after Leave")
	}
	if len(srv.ActiveLeases()) != 0 {
		t.Fatal("lease survived release")
	}
}

func TestSilentLeaveExpiresServerSide(t *testing.T) {
	srv, rec, clock := newServerEnv(t, time.Hour)
	cl := NewClient(clock, srv, ClientConfig{
		CHAddr: mac(1), HostName: "Brians-ipad", SendRelease: false,
	})
	ip, err := cl.Join()
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Leave(); err != nil {
		t.Fatal(err)
	}
	// No release: the lease should persist until expiry.
	if len(srv.ActiveLeases()) != 1 {
		t.Fatal("lease vanished without release or expiry")
	}
	clock.Advance(59 * time.Minute)
	if len(srv.ActiveLeases()) != 1 {
		t.Fatal("lease expired early")
	}
	clock.Advance(2 * time.Minute)
	if len(srv.ActiveLeases()) != 0 {
		t.Fatal("lease did not expire")
	}
	last := rec.events[len(rec.events)-1]
	if last.Kind != LeaseExpired || last.IP != ip {
		t.Fatalf("last event = %+v", last)
	}
}

func TestRenewalKeepsLeaseAlive(t *testing.T) {
	srv, rec, clock := newServerEnv(t, time.Hour)
	cl := NewClient(clock, srv, ClientConfig{CHAddr: mac(1), HostName: "h"})
	ip, err := cl.Join()
	if err != nil {
		t.Fatal(err)
	}
	// Client renews at T1 = 30 min; over 3 hours the lease must never
	// expire.
	clock.Advance(3 * time.Hour)
	leases := srv.ActiveLeases()
	if len(leases) != 1 || leases[0].IP != ip {
		t.Fatalf("leases = %+v", leases)
	}
	renewals := 0
	for _, ev := range rec.events {
		switch ev.Kind {
		case LeaseRenewed:
			renewals++
		case LeaseExpired:
			t.Fatalf("lease expired despite renewals: %+v", ev)
		}
	}
	if renewals < 5 {
		t.Fatalf("renewals = %d, want >= 5 over 3h at 30m cadence", renewals)
	}
}

func TestStickyReallocationSameIP(t *testing.T) {
	srv, _, clock := newServerEnv(t, time.Hour)
	cl := NewClient(clock, srv, ClientConfig{CHAddr: mac(1), SendRelease: true})
	ip1, err := cl.Join()
	if err != nil {
		t.Fatal(err)
	}
	cl.Leave()
	// Another client joins in between.
	other := NewClient(clock, srv, ClientConfig{CHAddr: mac(2)})
	if _, err := other.Join(); err != nil {
		t.Fatal(err)
	}
	ip2, err := cl.Join()
	if err != nil {
		t.Fatal(err)
	}
	if ip1 != ip2 {
		t.Fatalf("returning client got %v, previously had %v (stickiness lost)", ip2, ip1)
	}
}

func TestDistinctClientsDistinctAddresses(t *testing.T) {
	srv, _, clock := newServerEnv(t, time.Hour)
	seen := make(map[dnswire.IPv4]bool)
	for i := 0; i < 50; i++ {
		cl := NewClient(clock, srv, ClientConfig{CHAddr: mac(byte(i + 1))})
		ip, err := cl.Join()
		if err != nil {
			t.Fatal(err)
		}
		if seen[ip] {
			t.Fatalf("address %v allocated twice", ip)
		}
		seen[ip] = true
	}
	if len(srv.ActiveLeases()) != 50 {
		t.Fatalf("leases = %d, want 50", len(srv.ActiveLeases()))
	}
}

func TestPoolExhaustion(t *testing.T) {
	clock := simclock.NewSimulated(epoch)
	srv := NewServer(clock, ServerConfig{
		ServerIP: dnswire.MustIPv4("192.0.2.1"),
		// /30: network, two hosts, broadcast; one host is the server
		// IP... 192.0.2.0/30 = .0 .1 .2 .3, usable = .1, .2, minus
		// server .1 -> only .2.
		Pools:     []dnswire.Prefix{dnswire.MustPrefix("192.0.2.0/30")},
		LeaseTime: time.Hour,
	})
	cl1 := NewClient(clock, srv, ClientConfig{CHAddr: mac(1)})
	if _, err := cl1.Join(); err != nil {
		t.Fatal(err)
	}
	cl2 := NewClient(clock, srv, ClientConfig{CHAddr: mac(2)})
	if _, err := cl2.Join(); err == nil {
		t.Fatal("second Join succeeded on exhausted pool")
	}
	if srv.Stats().Exhausted == 0 {
		t.Fatal("exhaustion not counted")
	}
}

func TestLeaseCarriesFQDNOption(t *testing.T) {
	srv, rec, clock := newServerEnv(t, time.Hour)
	cl := NewClient(clock, srv, ClientConfig{
		CHAddr: mac(1),
		ClientFQDN: &dhcpwire.ClientFQDN{
			Flags: dhcpwire.FQDNServerUpdates,
			Name:  "brians-galaxy-note9.example.edu",
		},
	})
	if _, err := cl.Join(); err != nil {
		t.Fatal(err)
	}
	ev := rec.events[0]
	if ev.ClientFQDN == nil || ev.ClientFQDN.Name != "brians-galaxy-note9.example.edu" {
		t.Fatalf("event FQDN = %+v", ev.ClientFQDN)
	}
}

func TestRejoinAfterExpiry(t *testing.T) {
	srv, _, clock := newServerEnv(t, 30*time.Minute)
	cl := NewClient(clock, srv, ClientConfig{CHAddr: mac(1)})
	ip1, err := cl.Join()
	if err != nil {
		t.Fatal(err)
	}
	cl.Leave() // silent
	clock.Advance(time.Hour)
	if len(srv.ActiveLeases()) != 0 {
		t.Fatal("lease did not expire")
	}
	ip2, err := cl.Join()
	if err != nil {
		t.Fatal(err)
	}
	if ip1 != ip2 {
		t.Fatalf("sticky address lost across expiry: %v then %v", ip1, ip2)
	}
}

func TestServerRejectsMalformed(t *testing.T) {
	srv, _, _ := newServerEnv(t, time.Hour)
	if _, err := srv.Receive([]byte{1, 2, 3}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

func TestRequestForForeignServerIgnored(t *testing.T) {
	srv, _, _ := newServerEnv(t, time.Hour)
	req := &dhcpwire.Message{
		XID: 1, CHAddr: mac(1), Type: dhcpwire.Request,
		RequestedIP: dnswire.MustIPv4("192.0.2.10"),
		ServerID:    dnswire.MustIPv4("203.0.113.1"),
	}
	wire, _ := req.Marshal()
	if _, err := srv.Receive(wire); !errors.Is(err, ErrNotForUs) {
		t.Fatalf("err = %v, want ErrNotForUs", err)
	}
}

func TestNAKForTakenAddress(t *testing.T) {
	srv, _, clock := newServerEnv(t, time.Hour)
	cl1 := NewClient(clock, srv, ClientConfig{CHAddr: mac(1)})
	ip, err := cl1.Join()
	if err != nil {
		t.Fatal(err)
	}
	req := &dhcpwire.Message{
		XID: 5, CHAddr: mac(2), Type: dhcpwire.Request,
		RequestedIP: ip, ServerID: dnswire.MustIPv4("192.0.2.1"),
	}
	wire, _ := req.Marshal()
	reply, err := srv.Receive(wire)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := dhcpwire.Parse(reply)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Type != dhcpwire.NAK {
		t.Fatalf("reply = %v, want NAK", parsed.Type)
	}
}

func TestEventKindStrings(t *testing.T) {
	if LeaseGranted.String() != "granted" || LeaseExpired.String() != "expired" {
		t.Fatal("EventKind.String broken")
	}
	if EventKind(9).String() != "event9" {
		t.Fatal("unknown EventKind.String broken")
	}
}

func TestHourlyExpiryTiming(t *testing.T) {
	// The paper's Figure 7a shows PTR-removal peaks at multiples of an
	// hour, driven by lease expiry. Verify the expiry fires exactly at
	// lease end for a silent leaver.
	srv, rec, clock := newServerEnv(t, time.Hour)
	cl := NewClient(clock, srv, ClientConfig{CHAddr: mac(1)})
	if _, err := cl.Join(); err != nil {
		t.Fatal(err)
	}
	cl.Leave() // silent
	clock.Advance(2 * time.Hour)
	var expiredAt time.Time
	for _, ev := range rec.events {
		if ev.Kind == LeaseExpired {
			expiredAt = ev.At
		}
	}
	if expiredAt.IsZero() {
		t.Fatal("no expiry event")
	}
	if got := expiredAt.Sub(epoch); got != time.Hour {
		t.Fatalf("expired after %v, want exactly 1h", got)
	}
}

// Stats returns a snapshot of server counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ActiveLeases returns a snapshot of current leases.
func (s *Server) ActiveLeases() []Lease {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Lease, 0, len(s.byIP))
	for _, ls := range s.byIP {
		out = append(out, ls.lease)
	}
	return out
}
