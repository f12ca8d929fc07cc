package dhcpwire

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"rdnsprivacy/internal/dnswire"
)

func TestDiscoverRoundTrip(t *testing.T) {
	msg := &Message{
		XID:      0xDEADBEEF,
		Secs:     3,
		CHAddr:   HardwareAddr{0x02, 0x42, 0xac, 0x11, 0x00, 0x02},
		Type:     Discover,
		HostName: "Brians-iPhone",
		ClientID: []byte{1, 0x02, 0x42, 0xac, 0x11, 0x00, 0x02},
	}
	wire, err := msg.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.BootReply {
		t.Fatal("client message parsed as reply")
	}
	if got.XID != 0xDEADBEEF || got.Secs != 3 {
		t.Fatalf("got %+v", got)
	}
	if got.Type != Discover {
		t.Fatalf("type = %v", got.Type)
	}
	if got.HostName != "Brians-iPhone" {
		t.Fatalf("host name = %q", got.HostName)
	}
	if got.CHAddr != msg.CHAddr {
		t.Fatalf("chaddr = %v", got.CHAddr)
	}
	if string(got.ClientID) != string(msg.ClientID) {
		t.Fatalf("client ID = %v", got.ClientID)
	}
}

func TestACKRoundTrip(t *testing.T) {
	msg := &Message{
		BootReply: true,
		XID:       7,
		YIAddr:    dnswire.MustIPv4("192.0.2.10"),
		SIAddr:    dnswire.MustIPv4("192.0.2.1"),
		Type:      ACK,
		LeaseTime: time.Hour,
		ServerID:  dnswire.MustIPv4("192.0.2.1"),
	}
	wire, err := msg.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !got.BootReply || got.Type != ACK {
		t.Fatalf("got %+v", got)
	}
	if got.YIAddr != dnswire.MustIPv4("192.0.2.10") {
		t.Fatalf("yiaddr = %v", got.YIAddr)
	}
	if got.LeaseTime != time.Hour {
		t.Fatalf("lease = %v", got.LeaseTime)
	}
	if got.ServerID != dnswire.MustIPv4("192.0.2.1") {
		t.Fatalf("server ID = %v", got.ServerID)
	}
}

func TestClientFQDNRoundTrip(t *testing.T) {
	msg := &Message{
		XID:  1,
		Type: Request,
		ClientFQDN: &ClientFQDN{
			Flags: FQDNServerUpdates,
			Name:  "brians-mbp.example.edu",
		},
		RequestedIP: dnswire.MustIPv4("192.0.2.10"),
	}
	wire, err := msg.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.ClientFQDN == nil {
		t.Fatal("FQDN option lost")
	}
	if got.ClientFQDN.Flags != FQDNServerUpdates || got.ClientFQDN.Name != "brians-mbp.example.edu" {
		t.Fatalf("FQDN = %+v", got.ClientFQDN)
	}
	if got.RequestedIP != dnswire.MustIPv4("192.0.2.10") {
		t.Fatalf("requested = %v", got.RequestedIP)
	}
}

func TestFQDNNoUpdateFlag(t *testing.T) {
	// RFC 7844 §3.7: privacy-conscious clients can ask the server not to
	// update DNS.
	msg := &Message{
		XID:        1,
		Type:       Request,
		ClientFQDN: &ClientFQDN{Flags: FQDNNoUpdate, Name: "host"},
	}
	wire, err := msg.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.ClientFQDN.Flags&FQDNNoUpdate == 0 {
		t.Fatal("N bit lost in round trip")
	}
}

func TestReleaseRoundTrip(t *testing.T) {
	msg := &Message{
		XID:      9,
		CIAddr:   dnswire.MustIPv4("192.0.2.10"),
		Type:     Release,
		ServerID: dnswire.MustIPv4("192.0.2.1"),
	}
	wire, err := msg.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != Release || got.CIAddr != dnswire.MustIPv4("192.0.2.10") {
		t.Fatalf("got %+v", got)
	}
}

func TestBroadcastFlag(t *testing.T) {
	msg := &Message{XID: 1, Type: Discover, Broadcast: true}
	wire, _ := msg.AppendTo(nil)
	got, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Broadcast {
		t.Fatal("broadcast flag lost")
	}
}

func TestMarshalRequiresMessageType(t *testing.T) {
	if _, err := (&Message{XID: 1}).AppendTo(nil); !errors.Is(err, ErrNoMessageType) {
		t.Fatalf("err = %v, want ErrNoMessageType", err)
	}
}

func TestMarshalRejectsOverlongHostName(t *testing.T) {
	msg := &Message{XID: 1, Type: Discover, HostName: strings.Repeat("x", 256)}
	if _, err := msg.AppendTo(nil); !errors.Is(err, ErrOptionTooLong) {
		t.Fatalf("err = %v, want ErrOptionTooLong", err)
	}
}

func TestParseRejectsShort(t *testing.T) {
	if _, err := Parse(make([]byte, 100)); !errors.Is(err, ErrShortMessage) {
		t.Fatalf("err = %v, want ErrShortMessage", err)
	}
}

func TestParseRejectsBadMagic(t *testing.T) {
	msg := &Message{XID: 1, Type: Discover}
	wire, _ := msg.AppendTo(nil)
	wire[fixedHeaderLength] = 0
	if _, err := Parse(wire); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestParseRejectsBadOp(t *testing.T) {
	msg := &Message{XID: 1, Type: Discover}
	wire, _ := msg.AppendTo(nil)
	wire[0] = 9
	if _, err := Parse(wire); !errors.Is(err, ErrBadOp) {
		t.Fatalf("err = %v, want ErrBadOp", err)
	}
}

func TestParseRejectsTruncatedOption(t *testing.T) {
	msg := &Message{XID: 1, Type: Discover, HostName: "host"}
	wire, _ := msg.AppendTo(nil)
	// Chop inside the host name option (drop the end marker and two
	// data octets).
	wire = wire[:len(wire)-3]
	if _, err := Parse(wire); !errors.Is(err, ErrBadOption) {
		t.Fatalf("err = %v, want ErrBadOption", err)
	}
}

func TestParseRejectsMissingType(t *testing.T) {
	msg := &Message{XID: 1, Type: Discover}
	wire, _ := msg.AppendTo(nil)
	// Blank out the message-type option (53, len 1, value) with pads.
	at := fixedHeaderLength + 4
	wire[at], wire[at+1], wire[at+2] = OptPad, OptPad, OptPad
	if _, err := Parse(wire); !errors.Is(err, ErrNoMessageType) {
		t.Fatalf("err = %v, want ErrNoMessageType", err)
	}
}

func TestParseSkipsUnknownOptions(t *testing.T) {
	msg := &Message{XID: 1, Type: Discover}
	wire, _ := msg.AppendTo(nil)
	// Replace the end marker with an unknown option then a new end.
	wire = wire[:len(wire)-1]
	wire = append(wire, 120, 2, 0xAA, 0xBB, OptEnd)
	got, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != Discover {
		t.Fatalf("type = %v", got.Type)
	}
}

func TestMessageTypeStrings(t *testing.T) {
	if Discover.String() != "DHCPDISCOVER" || Release.String() != "DHCPRELEASE" {
		t.Fatal("MessageType.String broken")
	}
	if MessageType(77).String() != "DHCPTYPE77" {
		t.Fatal("unknown MessageType.String broken")
	}
}

func TestHardwareAddrString(t *testing.T) {
	h := HardwareAddr{0x02, 0x42, 0xac, 0x11, 0x00, 0x02}
	if h.String() != "02:42:ac:11:00:02" {
		t.Fatalf("String() = %q", h.String())
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(xid uint32, secs uint16, chaddr [6]byte, host string, lease uint16) bool {
		if len(host) > 255 {
			host = host[:255]
		}
		msg := &Message{
			XID:       xid,
			Secs:      secs,
			CHAddr:    HardwareAddr(chaddr),
			Type:      Request,
			HostName:  host,
			LeaseTime: time.Duration(lease) * time.Second,
		}
		wire, err := msg.AppendTo(nil)
		if err != nil {
			return false
		}
		got, err := Parse(wire)
		if err != nil {
			return false
		}
		return got.XID == xid && got.Secs == secs &&
			got.CHAddr == HardwareAddr(chaddr) &&
			got.HostName == host &&
			got.LeaseTime == time.Duration(lease)*time.Second
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
