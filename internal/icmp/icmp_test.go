package icmp

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestEchoRoundTrip(t *testing.T) {
	req := Echo{ID: 0xBEEF, Seq: 42, Payload: []byte("probe-data")}
	wire := req.AppendTo(nil)
	got, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reply {
		t.Fatal("request parsed as reply")
	}
	if got.ID != 0xBEEF || got.Seq != 42 || string(got.Payload) != "probe-data" {
		t.Fatalf("got %+v", got)
	}
}

func TestReplyRoundTrip(t *testing.T) {
	req := Echo{ID: 7, Seq: 9, Payload: []byte{1, 2, 3}}
	reply := ReplyTo(req)
	if !reply.Reply {
		t.Fatal("ReplyTo did not set Reply")
	}
	got, err := Parse(reply.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Reply || got.ID != 7 || got.Seq != 9 || len(got.Payload) != 3 {
		t.Fatalf("got %+v", got)
	}
}

func TestParseRejectsCorruptChecksum(t *testing.T) {
	wire := Echo{ID: 1, Seq: 2}.AppendTo(nil)
	wire[4] ^= 0xFF // corrupt the ID without fixing the checksum
	if _, err := Parse(wire); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestParseRejectsShort(t *testing.T) {
	if _, err := Parse([]byte{8, 0, 0}); !errors.Is(err, ErrShortPacket) {
		t.Fatalf("err = %v, want ErrShortPacket", err)
	}
}

func TestParseRejectsNonEcho(t *testing.T) {
	// Type 3 (destination unreachable) with a fixed-up checksum.
	buf := []byte{3, 0, 0, 0, 0, 0, 0, 0}
	cs := Checksum(buf)
	buf[2] = byte(cs >> 8)
	buf[3] = byte(cs)
	if _, err := Parse(buf); !errors.Is(err, ErrNotEcho) {
		t.Fatalf("err = %v, want ErrNotEcho", err)
	}
}

func TestParseRejectsNonZeroCode(t *testing.T) {
	buf := []byte{8, 1, 0, 0, 0, 0, 0, 0}
	cs := Checksum(buf)
	buf[2] = byte(cs >> 8)
	buf[3] = byte(cs)
	if _, err := Parse(buf); !errors.Is(err, ErrNonZeroCode) {
		t.Fatalf("err = %v, want ErrNonZeroCode", err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: the checksum of 00 01 f2 03 f4 f5 f6 f7 is the
	// complement of ddf2 + 2 carries -> 0x220d... compute directly: the
	// property we rely on is that verifying a packet containing its own
	// checksum yields zero, covered below. Here, pin one vector to catch
	// byte-order regressions.
	buf := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(buf); got != 0x220d {
		t.Fatalf("Checksum = %#04x, want 0x220d", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	buf := []byte{0x01, 0x02, 0x03}
	// Odd final byte is padded with zero: words 0102, 0300.
	want := ^uint16(0x0102 + 0x0300)
	if got := Checksum(buf); got != want {
		t.Fatalf("Checksum = %#04x, want %#04x", got, want)
	}
}

func TestMarshalParseProperty(t *testing.T) {
	f := func(id, seq uint16, payload []byte, reply bool) bool {
		e := Echo{Reply: reply, ID: id, Seq: seq, Payload: payload}
		got, err := Parse(e.AppendTo(nil))
		if err != nil {
			return false
		}
		if got.Reply != reply || got.ID != id || got.Seq != seq {
			return false
		}
		if len(got.Payload) != len(payload) {
			return false
		}
		for i := range payload {
			if got.Payload[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumSelfVerifyProperty(t *testing.T) {
	// The checksum of any marshaled packet (which embeds its own
	// checksum) must be zero.
	f := func(id, seq uint16, payload []byte) bool {
		wire := Echo{ID: id, Seq: seq, Payload: payload}.AppendTo(nil)
		return Checksum(wire) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
