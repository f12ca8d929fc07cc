package udpbatch

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"
)

func listen(t *testing.T, network, addr string) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP(network, net.UDPAddrFromAddrPort(netip.MustParseAddrPort(addr)))
	if err != nil {
		t.Skipf("no %s socket on %s: %v", network, addr, err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func batch(t *testing.T, conn *net.UDPConn, size int) *Conn {
	t.Helper()
	c, err := New(conn, size)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func localAddr(conn *net.UDPConn) netip.AddrPort {
	return conn.LocalAddr().(*net.UDPAddr).AddrPort()
}

// readAll reads want datagrams through c in as many batches as it takes,
// and returns them with their senders.
func readAll(t *testing.T, c *Conn, conn *net.UDPConn, bufSize, want int) ([][]byte, []netip.AddrPort) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	ms := make([]Message, 8)
	var got [][]byte
	var from []netip.AddrPort
	for len(got) < want {
		for i := range ms {
			ms[i] = Message{Buf: make([]byte, bufSize)}
		}
		n, err := c.ReadBatch(ms)
		if err != nil {
			t.Fatalf("after %d of %d datagrams: %v", len(got), want, err)
		}
		if n < 1 || n > len(ms) {
			t.Fatalf("ReadBatch read %d of %d", n, len(ms))
		}
		for _, m := range ms[:n] {
			got, from = append(got, m.Buf[:m.N]), append(from, m.Addr)
		}
	}
	return got, from
}

// A burst longer than the Conn's size goes out in order, each datagram
// arrives whole — cut to the reader's buffer when longer — with its sender,
// and the replies WriteBatch addresses to those senders reach them.
func TestBurstRoundTrip(t *testing.T) {
	server := listen(t, "udp4", "127.0.0.1:0")
	a, b := listen(t, "udp4", "127.0.0.1:0"), listen(t, "udp4", "127.0.0.1:0")
	sc := batch(t, server, 8)
	const bufSize = 64
	var out []Message
	var want [][]byte
	var wantFrom []netip.AddrPort
	for i := range 21 {
		payload := bytes.Repeat([]byte{byte(i)}, 1+i*5) // the last ones exceed bufSize
		sender := a
		if i%3 == 0 {
			sender = b
		}
		if _, err := sender.WriteToUDPAddrPort(payload, localAddr(server)); err != nil {
			t.Fatal(err)
		}
		want = append(want, payload[:min(len(payload), bufSize)])
		wantFrom = append(wantFrom, localAddr(sender))
		out = append(out, Message{Buf: append([]byte("re:"), payload[0]), Addr: localAddr(sender)})
	}
	got, from := readAll(t, sc, server, bufSize, len(want))
	for i := range want {
		if !bytes.Equal(got[i], want[i]) || from[i] != wantFrom[i] {
			t.Fatalf("datagram %d: %d octets from %v, want %d from %v", i, len(got[i]), from[i], len(want[i]), wantFrom[i])
		}
	}
	if n, err := sc.WriteBatch(out); n != len(out) || err != nil {
		t.Fatalf("WriteBatch = %d, %v; want %d, nil", n, err, len(out))
	}
	for _, peer := range []*net.UDPConn{a, b} {
		var wantReplies [][]byte
		for _, m := range out {
			if m.Addr == localAddr(peer) {
				wantReplies = append(wantReplies, m.Buf)
			}
		}
		replies, senders := readAll(t, batch(t, peer, 4), peer, bufSize, len(wantReplies))
		for i := range replies {
			if !bytes.Equal(replies[i], wantReplies[i]) || senders[i] != localAddr(server) {
				t.Fatalf("%v: reply %d is %q from %v, want %q from %v", localAddr(peer), i, replies[i], senders[i], wantReplies[i], localAddr(server))
			}
		}
	}
}

// On a connected socket the zero Addr sends to the connected peer.
func TestConnectedWrite(t *testing.T) {
	server := listen(t, "udp4", "127.0.0.1:0")
	client, err := net.DialUDP("udp4", nil, net.UDPAddrFromAddrPort(localAddr(server)))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ms := []Message{{Buf: []byte("one")}, {Buf: []byte("two")}, {Buf: []byte{}}}
	if n, err := batch(t, client, 16).WriteBatch(ms); n != 3 || err != nil {
		t.Fatalf("WriteBatch = %d, %v", n, err)
	}
	got, _ := readAll(t, batch(t, server, 16), server, 16, 3)
	if string(got[0]) != "one" || string(got[1]) != "two" || len(got[2]) != 0 {
		t.Fatalf("read %q", got)
	}
}

// An IPv4 socket has no IPv6 peers: WriteBatch sends what comes before
// such a destination and stops there with the error.
func TestWriteStopsAtAnUnreachablePeer(t *testing.T) {
	server := listen(t, "udp4", "127.0.0.1:0")
	client := listen(t, "udp4", "127.0.0.1:0")
	ms := []Message{
		{Buf: []byte("first"), Addr: localAddr(server)},
		{Buf: []byte("never"), Addr: netip.MustParseAddrPort("[2001:db8::1]:53")},
		{Buf: []byte("nor this"), Addr: localAddr(server)},
	}
	if n, err := batch(t, client, 16).WriteBatch(ms); n != 1 || err == nil {
		t.Fatalf("WriteBatch = %d, %v; want 1 and an error", n, err)
	}
	if got, _ := readAll(t, batch(t, server, 16), server, 16, 1); string(got[0]) != "first" {
		t.Fatalf("read %q", got[0])
	}
}

// A dual-stack socket reads an IPv4 peer as its mapped address, and a
// reply reaches the peer under either form.
func TestDualStackPeers(t *testing.T) {
	server := listen(t, "udp", "[::]:0")
	port := localAddr(server).Port()
	client := listen(t, "udp4", "127.0.0.1:0")
	if _, err := client.WriteToUDPAddrPort([]byte("q"), netip.AddrPortFrom(netip.MustParseAddr("127.0.0.1"), port)); err != nil {
		t.Fatal(err)
	}
	sc := batch(t, server, 4)
	_, from := readAll(t, sc, server, 16, 1)
	if from[0].Addr().Unmap() != localAddr(client).Addr() || from[0].Port() != localAddr(client).Port() {
		t.Fatalf("peer %v, want %v", from[0], localAddr(client))
	}
	ms := []Message{{Buf: []byte("mapped"), Addr: from[0]}, {Buf: []byte("plain"), Addr: localAddr(client)}}
	if n, err := sc.WriteBatch(ms); n != 2 || err != nil {
		t.Fatalf("WriteBatch = %d, %v", n, err)
	}
	if got, _ := readAll(t, batch(t, client, 4), client, 16, 2); string(got[0]) != "mapped" || string(got[1]) != "plain" {
		t.Fatalf("read %q", got)
	}
}

// A read deadline ends a wait with a timeout, and Close ends it with
// net.ErrClosed.
func TestReadDeadlineAndClose(t *testing.T) {
	server := listen(t, "udp4", "127.0.0.1:0")
	sc := batch(t, server, 4)
	ms := []Message{{Buf: make([]byte, 16)}}
	server.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	var ne net.Error
	if _, err := sc.ReadBatch(ms); !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("ReadBatch past the deadline = %v, want a timeout", err)
	}
	server.SetReadDeadline(time.Time{})
	done := make(chan error, 1)
	go func() {
		_, err := sc.ReadBatch(ms)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // most likely parked by now; a Close before the read fails it the same way
	server.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("ReadBatch on a closed socket = %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not end ReadBatch")
	}
}

// A batch costs no allocation, either way.
func TestBatchAllocatesNothing(t *testing.T) {
	server := listen(t, "udp4", "127.0.0.1:0")
	client := listen(t, "udp4", "127.0.0.1:0")
	sc, cc := batch(t, server, 8), batch(t, client, 8)
	out, in := make([]Message, 8), make([]Message, 8)
	for i := range out {
		out[i] = Message{Buf: []byte(fmt.Sprint("datagram ", i)), Addr: localAddr(server)}
		in[i] = Message{Buf: make([]byte, 64)}
	}
	server.SetReadDeadline(time.Now().Add(10 * time.Second))
	roundTrip := func() {
		if n, err := cc.WriteBatch(out); n != len(out) || err != nil {
			t.Fatalf("WriteBatch = %d, %v", n, err)
		}
		for read := 0; read < len(out); {
			n, err := sc.ReadBatch(in)
			if err != nil {
				t.Fatal(err)
			}
			read += n
		}
	}
	roundTrip()
	if got := testing.AllocsPerRun(100, roundTrip); got != 0 {
		t.Errorf("a round trip of %d datagrams allocates %.1f objects, want 0", len(out), got)
	}
}
