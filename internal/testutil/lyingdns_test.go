package testutil

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"
)

// lyingQuery is a one-question query for "a." with the given ID.
func lyingQuery(id uint16) []byte {
	q := make([]byte, 12, 19)
	binary.BigEndian.PutUint16(q, id)
	binary.BigEndian.PutUint16(q[4:], 1) // QDCOUNT
	return append(q, 1, 'a', 0, 0, 12, 0, 1)
}

// lyingTruth answers any query with itself, QR set, and one record's worth
// of bytes after the question. The decoy's answer is recognisable.
func lyingTruth(query []byte, tcp bool) []byte {
	if len(query) < 12 {
		return nil
	}
	r := append([]byte(nil), query...)
	r[2] |= 0x80
	binary.BigEndian.PutUint16(r[6:], 1) // ANCOUNT
	tail := byte(0xAA)
	if tcp {
		tail = 0xBB
	}
	return append(r, bytes.Repeat([]byte{tail}, 11)...)
}

// The fixture tells each lie as scripted, datagram by datagram.
func TestLyingDNSTellsEachLie(t *testing.T) {
	VerifyNoLeaks(t)
	decoy := lyingQuery(0xDEC0)
	decoy[13] = 'z'
	script := []Lie{Honest, Silent, WrongID, WrongQuestion, EchoQuery, LateDuplicate,
		OtherSource, Runt, Oversized, Reversed, Reversed, Truncated}
	l := &LyingDNS{Answer: lyingTruth, Script: Script(script...), Decoy: decoy, Seed: 7}
	if err := l.Start(); err != nil {
		t.Skipf("no loopback UDP+TCP: %v", err)
	}
	defer l.Close()
	// An unconnected socket, so that the second source's datagram arrives.
	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	server, err := net.ResolveUDPAddr("udp", l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8192)
	// ask sends query i and returns the datagrams that come back within a
	// short wait, with their sources.
	ask := func(id uint16) (replies [][]byte, from []net.Addr) {
		t.Helper()
		if _, err := conn.WriteTo(lyingQuery(id), server); err != nil {
			t.Fatal(err)
		}
		for {
			conn.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
			n, src, err := conn.ReadFrom(buf)
			if err != nil {
				return replies, from
			}
			replies = append(replies, append([]byte(nil), buf[:n]...))
			from = append(from, src)
		}
	}
	one := func(id uint16, what string) []byte {
		t.Helper()
		replies, _ := ask(id)
		if len(replies) != 1 {
			t.Fatalf("%s: %d datagrams, want 1", what, len(replies))
		}
		return replies[0]
	}

	truth := func(id uint16) []byte { return lyingTruth(lyingQuery(id), false) }
	if got := one(1, "honest"); !bytes.Equal(got, truth(1)) {
		t.Errorf("honest = %x", got)
	}
	if replies, _ := ask(2); len(replies) != 0 {
		t.Errorf("silent sent %d datagrams", len(replies))
	}
	if got := one(3, "wrong id"); binary.BigEndian.Uint16(got) == 3 || !bytes.Equal(got[2:], truth(3)[2:]) {
		t.Errorf("wrong id = %x", got)
	}
	if got := one(4, "wrong question"); binary.BigEndian.Uint16(got) != 4 || got[13] != 'z' {
		t.Errorf("wrong question = %x, want the decoy's answer under ID 4", got)
	}
	if got := one(5, "echo"); !bytes.Equal(got, lyingQuery(5)) {
		t.Errorf("echo = %x", got)
	}
	if replies, _ := ask(6); len(replies) != 2 || !bytes.Equal(replies[0], truth(5)) || !bytes.Equal(replies[1], truth(6)) {
		t.Errorf("late duplicate = %x, want the previous answer then this one", replies)
	}
	if replies, from := ask(7); len(replies) != 1 || !bytes.Equal(replies[0], truth(7)) || from[0].String() == l.Addr() {
		t.Errorf("other source = %x from %v (server is %s)", replies, from, l.Addr())
	}
	if got := one(8, "runt"); !bytes.Equal(got, truth(8)[:5]) {
		t.Errorf("runt = %x", got)
	}
	if got := one(9, "oversized"); len(got) != 5000 || binary.BigEndian.Uint16(got) != 9 || binary.BigEndian.Uint16(got[10:]) != 0xFFFF {
		t.Errorf("oversized: %d octets, header %x", len(got), got[:12])
	}
	if replies, _ := ask(10); len(replies) != 0 {
		t.Errorf("a held-back answer was sent at once")
	}
	if replies, _ := ask(11); len(replies) != 2 || !bytes.Equal(replies[0], truth(11)) || !bytes.Equal(replies[1], truth(10)) {
		t.Errorf("reversed = %x, want 11's answer then 10's", replies)
	}
	cut := one(12, "truncated")
	if len(cut) != len(lyingQuery(12)) || cut[2]&0x02 == 0 || cut[2]&0x80 == 0 || !bytes.Equal(cut[6:12], make([]byte, 6)) {
		t.Errorf("truncated = %x, want the question alone with TC set", cut)
	}
	if got := one(13, "past the script"); !bytes.Equal(got, truth(13)) {
		t.Errorf("past the script = %x", got)
	}
	if l.Datagrams() != 13 {
		t.Errorf("Datagrams = %d, want 13", l.Datagrams())
	}
}

// The stream side answers framed queries with the truth, or — told to —
// with a truncation that never clears.
func TestLyingDNSStreams(t *testing.T) {
	VerifyNoLeaks(t)
	for _, truncateTCP := range []bool{false, true} {
		l := &LyingDNS{Answer: lyingTruth, TruncateTCP: truncateTCP}
		if err := l.Start(); err != nil {
			t.Skipf("no loopback UDP+TCP: %v", err)
		}
		conn, err := net.Dial("tcp", l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		for id := uint16(1); id <= 2; id++ { // two queries on one stream
			q := lyingQuery(id)
			if _, err := conn.Write(append(binary.BigEndian.AppendUint16(nil, uint16(len(q))), q...)); err != nil {
				t.Fatal(err)
			}
			reply, err := readFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			want := lyingTruth(q, true)
			if truncateTCP {
				want = truncate(want)
			}
			if !bytes.Equal(reply, want) || (reply[2]&0x02 != 0) != truncateTCP {
				t.Errorf("truncateTCP=%v: stream reply %x, want %x", truncateTCP, reply, want)
			}
		}
		// A zero-length frame ends the stream.
		conn.Write([]byte{0, 0})
		if _, err := io.ReadAll(conn); err != nil {
			t.Errorf("after a zero-length frame: %v", err)
		}
		conn.Close()
		// So does hanging up, and so does a query there is no answer to.
		for _, frame := range [][]byte{nil, {0, 3, 1, 2, 3}} {
			conn, err := net.Dial("tcp", l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			conn.Write(frame)
			if frame == nil {
				conn.Close()
				continue
			}
			if rest, err := io.ReadAll(conn); err != nil || len(rest) != 0 {
				t.Errorf("after an unanswerable query: %x, %v", rest, err)
			}
			conn.Close()
		}
		if l.Streams() != 3 {
			t.Errorf("Streams = %d, want 3", l.Streams())
		}
		l.Close()
	}
	if truncate([]byte{1, 2, 3}) != nil || truncate(make([]byte, 12)) != nil {
		t.Error("truncate made something of a message without a question")
	}
	if q := lyingQuery(1); truncate(q[:len(q)-2]) != nil {
		t.Error("truncate made something of a cut question")
	}
}

// A random script is a function of its seed and the datagram's index only.
func TestRandomLiesIsSeeded(t *testing.T) {
	lies := []Lie{Honest, Silent, WrongID, Runt}
	a, b, c := RandomLies(1, lies...), RandomLies(1, lies...), RandomLies(2, lies...)
	same, seen := true, map[Lie]bool{}
	for i := 99; i >= 0; i-- { // any order
		if a(i) != b(i) {
			t.Fatalf("datagram %d: seed 1 told %v and %v", i, a(i), b(i))
		}
		same = same && a(i) == c(i)
		seen[a(i)] = true
	}
	if same || len(seen) != len(lies) {
		t.Errorf("seeds 1 and 2 agree everywhere (%v), or a lie was never told: %v", same, seen)
	}
	if l := (&LyingDNS{}); l.lie(5) != Honest {
		t.Error("no script should be all Honest")
	}
}
