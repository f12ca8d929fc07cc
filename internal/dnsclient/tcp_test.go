package dnsclient

import (
	"context"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rdnsprivacy/internal/dnsserver"
	"rdnsprivacy/internal/dnswire"
)

// tcpTestServer starts a server on loopback UDP+TCP with one populated
// zone and returns the client plus the zone.
func tcpTestServer(t *testing.T, records int, allowTransfer bool) (*UDPClient, *dnsserver.Zone, *dnsserver.Server) {
	t.Helper()
	srv := dnsserver.NewServer()
	zone := dnsserver.NewZone(dnsserver.ZoneConfig{
		Origin:    dnswire.MustName("2.0.192.in-addr.arpa"),
		PrimaryNS: dnswire.MustName("ns1.example.edu"),
		Mbox:      dnswire.MustName("hostmaster.example.edu"),
	})
	srv.AddZone(zone)
	srv.SetTransferPolicy(allowTransfer)
	for i := 0; i < records; i++ {
		ip := dnswire.MustPrefix("192.0.2.0/24").Nth(i + 1)
		name, err := dnswire.MustName("dyn.campus.edu").Prepend(
			strings.Repeat("x", 10) + ip.String()[len("192.0.2."):])
		if err != nil {
			t.Fatal(err)
		}
		zone.SetPTR(dnswire.ReverseName(ip), name)
	}

	udpConn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	t.Cleanup(func() { udpConn.Close() })
	go srv.Serve(udpConn)

	// TCP on the same port number is not guaranteed free; bind TCP first
	// on its own port and point the client at it for stream operations.
	// The client uses one Server address, so bind TCP to the UDP port.
	addr := udpConn.LocalAddr().(*net.UDPAddr)
	tcpLn, err := net.Listen("tcp", addr.String())
	if err != nil {
		t.Skipf("no loopback TCP on %v: %v", addr, err)
	}
	t.Cleanup(func() { tcpLn.Close() })
	go srv.ServeTCP(tcpLn)

	client := &UDPClient{Server: addr.String(), Timeout: 3 * time.Second, Retries: 1}
	return client, zone, srv
}

func TestLookupTCP(t *testing.T) {
	client, zone, _ := tcpTestServer(t, 1, false)
	ip := dnswire.MustPrefix("192.0.2.0/24").Nth(1)
	resp, err := client.LookupTCP(context.Background(), dnswire.Question{
		Name: dnswire.ReverseName(ip), Type: dnswire.TypePTR, Class: dnswire.ClassIN,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != OutcomeSuccess {
		t.Fatalf("outcome = %v", resp.Outcome)
	}
	if _, ok := zone.LookupPTR(dnswire.ReverseName(ip)); !ok {
		t.Fatal("test setup broken")
	}
}

// TestTruncationAndTCPFallback puts the sweep's source in front of a name
// server whose UDP side answers every query truncated, with the answer
// section cut — the reply that classifies as NODATA if the TC bit goes
// unread — and whose TCP side answers in full. Through UDPSource the
// address must come back found, not absent: a truncated datagram is a
// reason to ask again, never evidence that a record is gone.
func TestTruncationAndTCPFallback(t *testing.T) {
	target := dnswire.MustName("laptop-of-brian.dyn.campus.edu")
	// answer builds the stub's reply to one wire query.
	answer := func(query []byte, truncated bool) []byte {
		q, err := dnswire.Unmarshal(query)
		if err != nil {
			t.Errorf("stub server got an unparsable query: %v", err)
			return nil
		}
		resp := dnswire.NewResponse(q, dnswire.RCodeNoError)
		resp.Header.Truncated = truncated
		if !truncated {
			resp.Answers = []dnswire.Record{{
				Name: q.Questions[0].Name, Type: dnswire.TypePTR, Class: dnswire.ClassIN,
				TTL: 300, Data: dnswire.PTRData{Target: target},
			}}
		}
		wire, err := resp.Marshal()
		if err != nil {
			t.Errorf("stub server: %v", err)
		}
		return wire
	}

	udp, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer udp.Close()
	tcp, err := net.Listen("tcp", udp.LocalAddr().String())
	if err != nil {
		t.Skipf("no loopback TCP on %v: %v", udp.LocalAddr(), err)
	}
	defer tcp.Close()
	var datagrams, streams atomic.Int32
	go func() {
		buf := make([]byte, 4096)
		for {
			n, from, err := udp.ReadFrom(buf)
			if err != nil {
				return
			}
			datagrams.Add(1)
			udp.WriteTo(answer(buf[:n], true), from)
		}
	}()
	go func() {
		for {
			conn, err := tcp.Accept()
			if err != nil {
				return
			}
			streams.Add(1)
			if query, err := readFramed(conn); err == nil {
				writeFramed(conn, answer(query, false))
			}
			conn.Close()
		}
	}()

	src := UDPSource{Client: &UDPClient{Server: udp.LocalAddr().String(), Timeout: 2 * time.Second, Retries: 1}}
	ip := dnswire.MustIPv4("192.0.2.10")
	res := src.LookupPTR(context.Background(), ip)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Found || res.Name != target {
		t.Fatalf("result = %+v, want %s found: a truncated answer was taken for an absence", res, target)
	}
	if datagrams.Load() != 1 || streams.Load() != 1 {
		t.Fatalf("server saw %d datagrams and %d streams, want one of each", datagrams.Load(), streams.Load())
	}
	// The response accounts for both transports.
	resp := res.Meta.(Response)
	if resp.Outcome != OutcomeSuccess || resp.Attempts != 2 || resp.RTT <= 0 {
		t.Fatalf("response = %+v, want NOERROR after 2 attempts", resp)
	}
}

func TestZoneTransferEnumeratesZone(t *testing.T) {
	client, _, srv := tcpTestServer(t, 120, true)
	records, err := client.TransferZone(dnswire.MustName("2.0.192.in-addr.arpa"))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 120 {
		t.Fatalf("transferred %d records, want 120", len(records))
	}
	for _, rr := range records {
		if rr.Type != dnswire.TypePTR {
			t.Fatalf("unexpected record type %v in transfer", rr.Type)
		}
	}
	if srv.Stats().Transfers != 1 {
		t.Fatalf("stats = %+v", srv.Stats())
	}
}

func TestZoneTransferRefusedByDefault(t *testing.T) {
	client, _, _ := tcpTestServer(t, 5, false)
	if _, err := client.TransferZone(dnswire.MustName("2.0.192.in-addr.arpa")); err == nil {
		t.Fatal("transfer succeeded despite policy")
	}
}

func TestZoneTransferUnknownZone(t *testing.T) {
	client, _, _ := tcpTestServer(t, 5, true)
	if _, err := client.TransferZone(dnswire.MustName("9.9.9.in-addr.arpa")); err == nil {
		t.Fatal("transfer of unknown zone succeeded")
	}
}

func TestAXFROverUDPRefused(t *testing.T) {
	client, _, _ := tcpTestServer(t, 5, true)
	resp, err := client.LookupContext(context.Background(), dnswire.Question{
		Name: dnswire.MustName("2.0.192.in-addr.arpa"), Type: dnswire.TypeAXFR,
		Class: dnswire.ClassIN,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != OutcomeRefused {
		t.Fatalf("outcome = %v, want REFUSED for AXFR over UDP", resp.Outcome)
	}
}
