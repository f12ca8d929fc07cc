package rdnsprivacy_test

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"rdnsprivacy/internal/dhcp"
	"rdnsprivacy/internal/dhcpwire"
	"rdnsprivacy/internal/dnsclient"
	"rdnsprivacy/internal/dnsserver"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/faultsim"
	"rdnsprivacy/internal/ipam"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/simclock"
)

// TestRealSocketsEndToEnd exercises the full operator-and-observer loop
// over genuine loopback sockets and the real clock: DHCP clients join, the
// IPAM publishes their names, a scanner on UDP reads them, a release
// removes them, and an open AXFR dumps the rest — the cmd/simnet +
// cmd/rdnsscan pipeline as one test.
func TestRealSocketsEndToEnd(t *testing.T) {
	prefix := dnswire.MustPrefix("10.42.0.0/24")
	origin, err := dnswire.ReverseZoneFor24(prefix)
	if err != nil {
		t.Fatal(err)
	}
	zone := dnsserver.NewZone(dnsserver.ZoneConfig{
		Origin:    origin,
		PrimaryNS: dnswire.MustName("ns1.campus-x.edu"),
		Mbox:      dnswire.MustName("hostmaster.campus-x.edu"),
	})
	srv := dnsserver.NewServer()
	srv.AddZone(zone)
	srv.SetTransferPolicy(true)
	updater := ipam.NewUpdater(ipam.Config{
		Policy: ipam.PolicyCarryOver,
		Suffix: dnswire.MustName("dyn.campus-x.edu"),
	})
	if err := updater.AttachZone(zone); err != nil {
		t.Fatal(err)
	}
	dhcpSrv := dhcp.NewServer(simclock.Real{}, dhcp.ServerConfig{
		ServerIP:  prefix.Nth(1),
		Pools:     []dnswire.Prefix{prefix},
		LeaseTime: time.Hour,
		Sink:      updater,
	})

	udpConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer udpConn.Close()
	go srv.Serve(udpConn)
	addr := udpConn.LocalAddr().(*net.UDPAddr)
	tcpLn, err := net.Listen("tcp", addr.String())
	if err != nil {
		t.Skipf("no loopback TCP: %v", err)
	}
	defer tcpLn.Close()
	go srv.ServeTCP(tcpLn)

	// Three clients join.
	hosts := []string{"Brian's iPhone", "Emma's iPad", "DESKTOP-XYZ123"}
	var clients []*dhcp.Client
	var ips []dnswire.IPv4
	for i, host := range hosts {
		cl := dhcp.NewClient(simclock.Real{}, dhcpSrv, dhcp.ClientConfig{
			CHAddr:      dhcpwire.HardwareAddr{2, 0, 0, 0, 0, byte(i + 1)},
			HostName:    host,
			SendRelease: true,
		})
		ip, err := cl.Join()
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
		ips = append(ips, ip)
	}

	scanner := &dnsclient.UDPClient{Server: addr.String(), Timeout: 2 * time.Second, Retries: 1}

	// The scanner sees all three, names intact.
	resp, err := scanner.LookupPTRContext(context.Background(), ips[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != dnsclient.OutcomeSuccess ||
		resp.PTR != dnswire.MustName("brians-iphone.dyn.campus-x.edu") {
		t.Fatalf("scan saw %v / %q", resp.Outcome, resp.PTR)
	}

	// An AXFR dumps the whole zone in one query.
	records, err := scanner.TransferZone(origin)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("transfer = %d records, want 3", len(records))
	}
	names := map[string]bool{}
	for _, rr := range records {
		if ptr, ok := rr.Data.(dnswire.PTRData); ok {
			names[strings.SplitN(string(ptr.Target), ".", 2)[0]] = true
		}
	}
	for _, want := range []string{"brians-iphone", "emmas-ipad", "desktop-xyz123"} {
		if !names[want] {
			t.Fatalf("transfer missing %s (have %v)", want, names)
		}
	}

	// A clean release removes the record immediately.
	if err := clients[0].Leave(); err != nil {
		t.Fatal(err)
	}
	resp, err = scanner.LookupPTRContext(context.Background(), ips[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != dnsclient.OutcomeNXDomain {
		t.Fatalf("after release: %v, want NXDOMAIN", resp.Outcome)
	}
	// The others remain.
	resp, err = scanner.LookupPTRContext(context.Background(), ips[1])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != dnsclient.OutcomeSuccess {
		t.Fatalf("unrelated record vanished: %v", resp.Outcome)
	}
}

// TestRFC2136OverRealSockets runs the split IPAM deployment over loopback
// UDP: the updater's DNS UPDATE messages travel a real socket to the
// authoritative server.
func TestRFC2136OverRealSockets(t *testing.T) {
	prefix := dnswire.MustPrefix("10.43.0.0/24")
	origin, _ := dnswire.ReverseZoneFor24(prefix)
	zone := dnsserver.NewZone(dnsserver.ZoneConfig{
		Origin:    origin,
		PrimaryNS: dnswire.MustName("ns1.campus-y.edu"),
		Mbox:      dnswire.MustName("hostmaster.campus-y.edu"),
	})
	srv := dnsserver.NewServer()
	srv.AddZone(zone)
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer conn.Close()
	go srv.Serve(conn)

	sock, err := net.Dial("udp", conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	writer := ipam.NewRFC2136Writer(origin, func(wire []byte) { sock.Write(wire) })

	name := dnswire.ReverseName(prefix.Nth(7))
	if err := writer.SetPTR(name, dnswire.MustName("brians-mbp.dyn.campus-y.edu")); err != nil {
		t.Fatal(err)
	}
	// Fire-and-forget: poll briefly for the update to land.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, ok := zone.LookupPTR(name); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("update never applied")
		}
		time.Sleep(10 * time.Millisecond)
	}
	got, _ := zone.LookupPTR(name)
	if got != dnswire.MustName("brians-mbp.dyn.campus-y.edu") {
		t.Fatalf("PTR = %q", got)
	}
}

// TestResilientSweepOverRealSockets runs the resilient scan pipeline over
// genuine loopback UDP against a deliberately lossy authoritative server:
// DHCP clients publish their names, the server drops a quarter of all
// queries, and the sweep must still come back complete — scan-level
// retries absorbing the timeouts — with a health report accounting for
// the recovery work.
func TestResilientSweepOverRealSockets(t *testing.T) {
	prefix := dnswire.MustPrefix("10.43.0.0/24")
	origin, err := dnswire.ReverseZoneFor24(prefix)
	if err != nil {
		t.Fatal(err)
	}
	zone := dnsserver.NewZone(dnsserver.ZoneConfig{
		Origin:    origin,
		PrimaryNS: dnswire.MustName("ns1.campus-y.edu"),
		Mbox:      dnswire.MustName("hostmaster.campus-y.edu"),
	})
	srv := dnsserver.NewServer()
	srv.AddZone(zone)
	updater := ipam.NewUpdater(ipam.Config{
		Policy: ipam.PolicyCarryOver,
		Suffix: dnswire.MustName("dyn.campus-y.edu"),
	})
	if err := updater.AttachZone(zone); err != nil {
		t.Fatal(err)
	}
	dhcpSrv := dhcp.NewServer(simclock.Real{}, dhcp.ServerConfig{
		ServerIP:  prefix.Nth(1),
		Pools:     []dnswire.Prefix{prefix},
		LeaseTime: time.Hour,
		Sink:      updater,
	})
	for i, host := range []string{"Brian's iPhone", "Emma's iPad", "DESKTOP-XYZ123"} {
		cl := dhcp.NewClient(simclock.Real{}, dhcpSrv, dhcp.ClientConfig{
			CHAddr:   dhcpwire.HardwareAddr{2, 0, 0, 0, 1, byte(i + 1)},
			HostName: host,
		})
		if _, err := cl.Join(); err != nil {
			t.Fatal(err)
		}
	}

	// A quarter of all queries vanish; decisions are per (name, attempt),
	// so retransmitted queries draw fresh luck.
	srv.SetInjector(faultsim.New(nil, 11, faultsim.Profile{Loss: 0.25}))

	udpConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer udpConn.Close()
	go srv.Serve(udpConn)

	client := &dnsclient.UDPClient{
		Server:  udpConn.LocalAddr().String(),
		Timeout: 80 * time.Millisecond,
	}
	sc := scanengine.New(dnsclient.UDPSource{Client: client},
		scanengine.WithWorkers(8), scanengine.WithShardBits(27),
		scanengine.WithResilience(scanengine.ResilienceConfig{
			Retry:   scanengine.RetryPolicy{MaxAttempts: 8},
			Breaker: scanengine.BreakerConfig{Threshold: 6, OpenFor: 50 * time.Millisecond},
			Seed:    11,
		}))
	snap, err := sc.Scan(context.Background(), scanengine.Request{
		Targets: []dnswire.Prefix{prefix},
	})
	if err != nil {
		t.Fatalf("resilient sweep failed: %v", err)
	}
	if snap.Partial || snap.Degraded {
		t.Fatalf("sweep did not complete cleanly: partial=%v degraded=%v", snap.Partial, snap.Degraded)
	}
	if len(snap.Records) != 3 {
		t.Fatalf("sweep found %d records, want 3: %v", len(snap.Records), snap.Records)
	}
	if snap.Stats.Errors != 0 {
		t.Fatalf("%d addresses failed despite retry budget", snap.Stats.Errors)
	}
	h := snap.Health
	if h == nil {
		t.Fatal("resilient sweep returned no health report")
	}
	// 256 addresses at 25% loss: the retry budget must have been used.
	if h.Totals.Retries == 0 {
		t.Fatal("a quarter of queries were dropped but the sweep never retried")
	}
	if h.Totals.Attempts < 256 {
		t.Fatalf("health reports %d attempts for 256 addresses", h.Totals.Attempts)
	}
}
