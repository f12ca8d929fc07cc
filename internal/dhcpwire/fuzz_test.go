package dhcpwire

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// The DHCP server parses packets from arbitrary clients: no input may
// panic the codec.

func TestParseNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(buf []byte) bool {
		_, _ = Parse(buf)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestParseNeverPanicsOnMutatedMessages(t *testing.T) {
	base := &Message{
		XID:      0xABCD,
		CHAddr:   HardwareAddr{2, 0, 0, 0, 0, 1},
		Type:     Request,
		HostName: "Brians-iPhone",
		ClientFQDN: &ClientFQDN{
			Flags: FQDNServerUpdates, Name: "brians-iphone.example.edu",
		},
		LeaseTime: time.Hour,
	}
	wire, err := base.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		mutated := append([]byte(nil), wire...)
		for f := 0; f < 1+rng.Intn(4); f++ {
			mutated[rng.Intn(len(mutated))] ^= byte(1 << rng.Intn(8))
		}
		if rng.Intn(4) == 0 {
			mutated = mutated[:rng.Intn(len(mutated))+1]
		}
		_, _ = Parse(mutated) // must not panic
	}
}

// FuzzParseOptions fuzzes the TLV option walk behind a fixed valid
// header, seeded with the malformed Client-FQDN and Host-Name shapes the
// option 81/12 leak path must reject (or survive) gracefully. Go runs the
// seed corpus on every plain `go test`; `go test -fuzz=FuzzParseOptions`
// explores further.
func FuzzParseOptions(f *testing.F) {
	// Well-formed request: type + host name + FQDN.
	f.Add([]byte{
		OptMessageType, 1, byte(Request),
		OptHostName, 13, 'B', 'r', 'i', 'a', 'n', 's', '-', 'i', 'P', 'h', 'o', 'n', 'e',
		OptClientFQDN, 8, 0x01, 0, 0, 'b', 'r', 'i', 'a', 'n',
		OptEnd,
	})
	// Client FQDN shorter than its mandatory flags+rcode prefix.
	f.Add([]byte{OptMessageType, 1, byte(Request), OptClientFQDN, 2, 0x01, 0, OptEnd})
	// Client FQDN whose length byte overruns the buffer.
	f.Add([]byte{OptMessageType, 1, byte(Request), OptClientFQDN, 200, 0x05, 0, 0, 'x'})
	// Host Name truncated mid-data.
	f.Add([]byte{OptMessageType, 1, byte(Discover), OptHostName, 10, 'c', 'u', 't'})
	// Host Name with embedded NUL and non-ASCII bytes (hostnames are
	// client-controlled; the codec must pass them through unjudged).
	f.Add([]byte{OptMessageType, 1, byte(Request), OptHostName, 5, 0, 0xFF, 'a', 0, 0xC3, OptEnd})
	// Empty Host Name and empty-name FQDN.
	f.Add([]byte{OptMessageType, 1, byte(Request), OptHostName, 0, OptClientFQDN, 3, 0x08, 0, 0, OptEnd})
	// Option code with no length byte at end of buffer.
	f.Add([]byte{OptMessageType, 1, byte(Request), OptHostName})
	// Pad flood, duplicate message type, missing OptEnd.
	f.Add([]byte{OptPad, OptPad, OptMessageType, 1, byte(Request), OptPad, OptMessageType, 1, byte(Release)})
	// No message type at all.
	f.Add([]byte{OptHostName, 2, 'h', 'i', OptEnd})
	// Bad message-type length.
	f.Add([]byte{OptMessageType, 2, byte(Request), 0, OptEnd})

	header := make([]byte, fixedHeaderLength, fixedHeaderLength+4)
	header[0] = opBootRequest
	header[1], header[2] = 1, 6
	header = append(header, magicCookie[:]...)

	f.Fuzz(func(t *testing.T, opts []byte) {
		m, err := Parse(append(append([]byte(nil), header...), opts...))
		if err != nil {
			if m != nil {
				t.Fatalf("Parse returned both a message and error %v", err)
			}
			return
		}
		if m.Type == 0 {
			t.Fatal("Parse succeeded without a message type option")
		}
		// Anything Parse accepts must survive a marshal/re-parse round
		// trip with the tracked identifier fields intact — the leak-path
		// fields may never be silently altered by the codec.
		wire, err := m.AppendTo(nil)
		if err != nil {
			t.Fatalf("re-marshal of parsed message failed: %v", err)
		}
		m2, err := Parse(wire)
		if err != nil {
			t.Fatalf("re-parse of marshalled message failed: %v", err)
		}
		if m2.Type != m.Type || m2.HostName != m.HostName {
			t.Fatalf("round trip altered identifiers: %+v vs %+v", m, m2)
		}
		switch {
		case m.ClientFQDN == nil && m2.ClientFQDN != nil,
			m.ClientFQDN != nil && m2.ClientFQDN == nil:
			t.Fatalf("round trip altered FQDN presence: %+v vs %+v", m.ClientFQDN, m2.ClientFQDN)
		case m.ClientFQDN != nil && *m.ClientFQDN != *m2.ClientFQDN:
			t.Fatalf("round trip altered FQDN: %+v vs %+v", *m.ClientFQDN, *m2.ClientFQDN)
		}
	})
}
