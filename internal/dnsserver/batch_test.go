package dnsserver

import (
	"bytes"
	"net"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
)

// batchZones attaches the same zone to srv and to oracle: every even host
// of 192.0.2.0/24 has a name, every odd one is NXDOMAIN.
func batchZones(t *testing.T, servers ...*Server) {
	t.Helper()
	for _, s := range servers {
		z := testZone(t)
		for host := byte(0); host < 200; host += 2 {
			if err := z.SetPTR(dnswire.ReverseName(dnswire.IPv4{192, 0, 2, host}), dnswire.MustName("host.dyn.example.edu")); err != nil {
				t.Fatal(err)
			}
		}
		s.AddZone(z)
	}
}

func ptrQuery(t *testing.T, id uint16, host byte) []byte {
	t.Helper()
	q, err := dnswire.AppendQuery(nil, id, dnswire.ReverseName(dnswire.IPv4{192, 0, 2, host}), dnswire.TypePTR)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// burst is one client's datagrams: found names and NXDOMAINs around a
// runt, a query with QR set, an AXFR and, for the first client, a datagram
// longer than Serve reads.
func burst(t *testing.T, client int) [][]byte {
	var dgs [][]byte
	for i := range 2*serveBatch + 2 {
		dgs = append(dgs, ptrQuery(t, uint16(client<<8|i), byte(i)))
	}
	qr := ptrQuery(t, uint16(client<<8|0xf0), 2)
	qr[2] |= 0x80
	axfr, err := dnswire.NewQuery(uint16(client<<8|0xf1), dnswire.MustName("2.0.192.in-addr.arpa"), dnswire.TypeAXFR).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	dgs = append(dgs[:10], append([][]byte{{0x12, 0x34, 0x01}, qr, axfr}, dgs[10:]...)...)
	if client == 0 {
		long := append(ptrQuery(t, 0xf2, 4), make([]byte, maxQueryUDP+904)...)
		dgs = append(dgs[:40], append([][]byte{long}, dgs[40:]...)...)
	}
	return dgs
}

// The batch loop over a queued burst from several peers: each answerable
// datagram gets exactly one reply, at its own peer and in its order, byte
// for byte what HandleQueryUDP answers to the datagram as Serve reads it
// (cut at 4 KiB); the rest get none, and the tallies agree.
func TestServeAnswersABurstPerPeer(t *testing.T) {
	srv, oracle := NewServer(), NewServer()
	batchZones(t, srv, oracle)
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer conn.Close()
	conn.SetReadBuffer(1 << 20) // best effort: the burst below fits the default too

	// Every burst is queued before Serve reads, interleaved across peers,
	// so the first reads drain full batches of mixed peers.
	const clients = 3
	var socks []net.Conn
	var bursts [][][]byte
	for c := range clients {
		sock, err := net.Dial("udp4", conn.LocalAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer sock.Close()
		socks, bursts = append(socks, sock), append(bursts, burst(t, c))
	}
	want := make([][][]byte, clients)
	for i := 0; ; i++ {
		wrote := false
		for c, dgs := range bursts {
			if i >= len(dgs) {
				continue
			}
			if _, err := socks[c].Write(dgs[i]); err != nil {
				t.Fatal(err)
			}
			if reply := oracle.HandleQueryUDP(dgs[i][:min(len(dgs[i]), maxQueryUDP)]); reply != nil {
				want[c] = append(want[c], reply)
			}
			wrote = true
		}
		if !wrote {
			break
		}
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(conn) }()

	buf := make([]byte, 4096)
	for c, sock := range socks {
		if len(want[c]) < 2*serveBatch {
			t.Fatalf("client %d: %d answerable datagrams, want at least two batches", c, len(want[c]))
		}
		for i, reply := range want[c] {
			sock.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := sock.Read(buf)
			if err != nil {
				t.Fatalf("client %d: reply %d of %d: %v", c, i, len(want[c]), err)
			}
			if !bytes.Equal(buf[:n], reply) {
				t.Fatalf("client %d: reply %d is\n%x\nwant\n%x", c, i, buf[:n], reply)
			}
		}
		sock.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		if n, err := sock.Read(buf); err == nil {
			t.Fatalf("client %d: an extra reply %x", c, buf[:n])
		}
	}
	if got, want := srv.Stats(), oracle.Stats(); got != want {
		t.Errorf("Stats() = %+v\nwant %+v", got, want)
	}
	conn.Close()
	if err := <-served; err != nil {
		t.Errorf("Serve = %v", err)
	}
}

// In the steady state a datagram through the batch loop allocates
// nothing: the query lands in the read slab and the reply in its slot.
func TestServeBatchAllocatesNothing(t *testing.T) {
	s := NewServer()
	batchZones(t, s)
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
	var queries [][]byte
	for host := range byte(8) {
		queries = append(queries, ptrQuery(t, uint16(host), host)) // found and NXDOMAIN in turn
	}
	reply := make([]byte, 512)
	roundTrip := func() {
		client.SetReadDeadline(time.Now().Add(2 * time.Second))
		for _, q := range queries {
			if _, err := client.Write(q); err != nil {
				t.Fatal(err)
			}
		}
		for range queries {
			if _, err := client.Read(reply); err != nil {
				t.Fatal(err)
			}
		}
	}
	roundTrip()
	if got := testing.AllocsPerRun(100, roundTrip); got != 0 {
		t.Errorf("a burst of %d datagrams through Serve allocates %.1f objects, want 0", len(queries), got)
	}
}

// hiddenConn is a PacketConn that is not a *net.UDPConn, which Serve
// answers through the interface, one datagram at a time.
type hiddenConn struct{ net.PacketConn }

func TestServeAnyPacketConn(t *testing.T) {
	s := NewServer()
	batchZones(t, s)
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(hiddenConn{conn}) }()
	client, err := net.Dial("udp", conn.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	query := ptrQuery(t, 9, 2)
	want := NewServer()
	batchZones(t, want)
	if _, err := client.Write(query); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 512)
	n, err := client.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:n], want.HandleQueryUDP(query)) {
		t.Fatalf("reply %x, want %x", buf[:n], want.HandleQueryUDP(query))
	}
	conn.Close()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve = %v after Close, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
}
