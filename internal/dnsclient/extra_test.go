package dnsclient

import (
	"context"
	"net"
	"testing"
	"time"

	"rdnsprivacy/internal/dnsserver"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/fabric"
)

func TestResolverClose(t *testing.T) {
	env := newEnv(t, fabric.Config{})
	if err := env.res.Close(); err != nil {
		t.Fatal(err)
	}
	// The bind address is reusable after close.
	if _, err := NewResolver(env.fab, WithBind(clientAddr), WithServer(serverAddr)); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

// TestLookupAutoFallsBackToTCPOnTruncation runs the fallback against the
// real server: a UDP size limit the PTR answer does not fit makes it set
// TC, and the client's ordinary lookup comes back with the full answer.
func TestLookupAutoFallsBackToTCPOnTruncation(t *testing.T) {
	old := dnsserver.MaxUDPResponse
	dnsserver.MaxUDPResponse = 60
	defer func() { dnsserver.MaxUDPResponse = old }()

	srv := dnsserver.NewServer()
	zone := dnsserver.NewZone(dnsserver.ZoneConfig{
		Origin:    dnswire.MustName("2.0.192.in-addr.arpa"),
		PrimaryNS: dnswire.MustName("ns1.example.edu"),
		Mbox:      dnswire.MustName("hostmaster.example.edu"),
	})
	srv.AddZone(zone)
	ip := dnswire.MustIPv4("192.0.2.10")
	zone.SetPTR(dnswire.ReverseName(ip),
		dnswire.MustName("quite-a-long-device-hostname-label.dyn.campus-a.edu"))

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

	client := &UDPClient{Server: addr.String(), Timeout: 2 * time.Second, Retries: 1}
	resp, err := client.LookupPTRContext(context.Background(), ip)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Queries; got != 2 || resp.Attempts != 2 {
		t.Fatalf("server answered %d queries and the client counted %d attempts, want the datagram and the stream", got, resp.Attempts)
	}
	if resp.Outcome != OutcomeSuccess ||
		resp.PTR != dnswire.MustName("quite-a-long-device-hostname-label.dyn.campus-a.edu") {
		t.Fatalf("resp = %v %q", resp.Outcome, resp.PTR)
	}
}

func TestLookupPTRAfterDisplacement(t *testing.T) {
	// Saturate the 16-bit ID space so wraps occur; every lookup must
	// still complete exactly once (the displaced ones as timeouts).
	env := newEnv(t, fabric.Config{LossRate: 1.0, Seed: 3}, WithTimeout(time.Hour))
	const n = 70000
	done := 0
	for i := 0; i < n; i++ {
		env.res.LookupPTR(context.Background(), dnswire.MustIPv4("192.0.2.10"), func(Response) { done++ })
	}
	// All queries are in flight (loss eats them); the oldest ~4.5k were
	// displaced by ID wrap and already completed.
	if done != n-65536 {
		t.Fatalf("done = %d, want %d displaced completions", done, n-65536)
	}
}
