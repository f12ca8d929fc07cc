// Package dhcpwire implements the DHCPv4 wire format of RFC 2131 with the
// options relevant to this study: Host Name (option 12, RFC 2132 §3.14) and
// Client FQDN (option 81, RFC 4702) — the two client-supplied identifiers
// whose carry-over into the global DNS the paper investigates — plus the
// protocol plumbing options (message type, requested address, lease time,
// server identifier, client identifier).
//
// Every DHCP exchange in the simulation is a real encoded packet that
// passes through this codec, so the leak path under study (client sends
// "Brians-iPhone" in option 12 → server publishes it in a PTR record) is
// exercised at the wire level, byte for byte.
package dhcpwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"rdnsprivacy/internal/dnswire"
)

// MessageType is the DHCP message type (option 53).
type MessageType uint8

// DHCP message types (RFC 2131 §3.1).
const (
	Discover MessageType = 1
	Offer    MessageType = 2
	Request  MessageType = 3
	Decline  MessageType = 4
	ACK      MessageType = 5
	NAK      MessageType = 6
	Release  MessageType = 7
	Inform   MessageType = 8
)

// String returns the conventional mnemonic.
func (t MessageType) String() string {
	switch t {
	case Discover:
		return "DHCPDISCOVER"
	case Offer:
		return "DHCPOFFER"
	case Request:
		return "DHCPREQUEST"
	case Decline:
		return "DHCPDECLINE"
	case ACK:
		return "DHCPACK"
	case NAK:
		return "DHCPNAK"
	case Release:
		return "DHCPRELEASE"
	case Inform:
		return "DHCPINFORM"
	default:
		return fmt.Sprintf("DHCPTYPE%d", uint8(t))
	}
}

// Option codes used by this implementation.
const (
	OptPad             = 0
	OptHostName        = 12 // RFC 2132 §3.14: the client's Host Name
	OptRequestedIP     = 50
	OptLeaseTime       = 51
	OptMessageType     = 53
	OptServerID        = 54
	OptClientID        = 61
	OptClientFQDN      = 81 // RFC 4702: Client Fully Qualified Domain Name
	OptEnd             = 255
	maxOptionDataOctet = 255
)

// Op codes for the fixed header.
const (
	opBootRequest = 1
	opBootReply   = 2
)

// magicCookie introduces the options field (RFC 2131 §3).
var magicCookie = [4]byte{99, 130, 83, 99}

// HardwareAddr is a 6-octet MAC address.
type HardwareAddr [6]byte

// String returns colon-separated hex.
func (h HardwareAddr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", h[0], h[1], h[2], h[3], h[4], h[5])
}

// FQDNFlags is the flags octet of the Client FQDN option (RFC 4702 §2.1).
type FQDNFlags uint8

// Client FQDN flag bits.
const (
	// FQDNServerUpdates (S): the client asks the server to perform the
	// A-record update.
	FQDNServerUpdates FQDNFlags = 1 << 0
	// FQDNOverride (O): server override of the client's S preference.
	FQDNOverride FQDNFlags = 1 << 1
	// FQDNNoUpdate (N): the client asks the server NOT to update DNS at
	// all. RFC 7844 (anonymity profiles) recommends clients avoid
	// sending identifying FQDNs; a set N bit is the in-protocol way to
	// signal "do not publish me".
	FQDNNoUpdate FQDNFlags = 1 << 3
	// FQDNEncodingWire (E): the domain name is in DNS wire encoding.
	FQDNEncodingWire FQDNFlags = 1 << 2
)

// ClientFQDN is the decoded Client FQDN option.
type ClientFQDN struct {
	Flags FQDNFlags
	// Name is the client's fully qualified (or partial) domain name.
	Name string
}

// Message is a decoded DHCPv4 message.
type Message struct {
	// BootReply distinguishes server messages (true) from client ones.
	BootReply bool
	// XID is the transaction ID chosen by the client.
	XID uint32
	// Secs is seconds elapsed since the client began acquisition.
	Secs uint16
	// Broadcast is the broadcast flag bit.
	Broadcast bool
	// CIAddr is the client's current address (renewals).
	CIAddr dnswire.IPv4
	// YIAddr is "your address": the address offered/assigned.
	YIAddr dnswire.IPv4
	// SIAddr is the next server address.
	SIAddr dnswire.IPv4
	// GIAddr is the relay agent address.
	GIAddr dnswire.IPv4
	// CHAddr is the client hardware address.
	CHAddr HardwareAddr

	// Type is the DHCP message type (option 53, mandatory).
	Type MessageType
	// HostName is the client Host Name (option 12), "" if absent. This
	// is the identifier that, in exposing networks, ends up in rDNS.
	HostName string
	// ClientFQDN is the Client FQDN option (option 81), nil if absent.
	ClientFQDN *ClientFQDN
	// RequestedIP is option 50, zero if absent.
	RequestedIP dnswire.IPv4
	// LeaseTime is option 51, zero if absent.
	LeaseTime time.Duration
	// ServerID is option 54, zero if absent.
	ServerID dnswire.IPv4
	// ClientID is option 61, nil if absent.
	ClientID []byte
}

// Errors returned by Parse.
var (
	ErrShortMessage  = errors.New("dhcpwire: message shorter than fixed header")
	ErrBadOp         = errors.New("dhcpwire: bad op code")
	ErrBadMagic      = errors.New("dhcpwire: missing magic cookie")
	ErrBadOption     = errors.New("dhcpwire: malformed option")
	ErrNoMessageType = errors.New("dhcpwire: missing message type option")
	ErrOptionTooLong = errors.New("dhcpwire: option data exceeds 255 octets")
)

// fixedHeaderLength is the size of the RFC 2131 fixed-format section.
const fixedHeaderLength = 236

// zeroHeader is the fixed-format section AppendTo starts from.
var zeroHeader [fixedHeaderLength]byte

// AppendTo appends m's wire format to buf and returns the extended buffer.
func (m *Message) AppendTo(buf []byte) ([]byte, error) {
	start := len(buf)
	buf = append(buf, zeroHeader[:]...)
	h := buf[start:]
	if m.BootReply {
		h[0] = opBootReply
	} else {
		h[0] = opBootRequest
	}
	h[1] = 1 // htype: Ethernet
	h[2] = 6 // hlen
	binary.BigEndian.PutUint32(h[4:8], m.XID)
	binary.BigEndian.PutUint16(h[8:10], m.Secs)
	if m.Broadcast {
		binary.BigEndian.PutUint16(h[10:12], 0x8000)
	}
	copy(h[12:16], m.CIAddr[:])
	copy(h[16:20], m.YIAddr[:])
	copy(h[20:24], m.SIAddr[:])
	copy(h[24:28], m.GIAddr[:])
	copy(h[28:34], m.CHAddr[:])
	// sname (64) and file (128) stay zero.
	buf = append(buf, magicCookie[:]...)

	if m.Type == 0 {
		return nil, ErrNoMessageType
	}
	buf = appendOption(buf, OptMessageType, []byte{byte(m.Type)})
	var err error
	if m.HostName != "" {
		if buf, err = appendOptionChecked(buf, OptHostName, []byte(m.HostName)); err != nil {
			return nil, err
		}
	}
	if m.ClientFQDN != nil {
		data := make([]byte, 3, 3+len(m.ClientFQDN.Name))
		data[0] = byte(m.ClientFQDN.Flags)
		// data[1], data[2]: deprecated RCODE fields, zero.
		data = append(data, []byte(m.ClientFQDN.Name)...)
		if buf, err = appendOptionChecked(buf, OptClientFQDN, data); err != nil {
			return nil, err
		}
	}
	if m.RequestedIP != (dnswire.IPv4{}) {
		buf = appendOption(buf, OptRequestedIP, m.RequestedIP[:])
	}
	if m.LeaseTime != 0 {
		var lt [4]byte
		binary.BigEndian.PutUint32(lt[:], uint32(m.LeaseTime/time.Second))
		buf = appendOption(buf, OptLeaseTime, lt[:])
	}
	if m.ServerID != (dnswire.IPv4{}) {
		buf = appendOption(buf, OptServerID, m.ServerID[:])
	}
	if len(m.ClientID) > 0 {
		if buf, err = appendOptionChecked(buf, OptClientID, m.ClientID); err != nil {
			return nil, err
		}
	}
	buf = append(buf, OptEnd)
	return buf, nil
}

func appendOption(buf []byte, code byte, data []byte) []byte {
	buf = append(buf, code, byte(len(data)))
	return append(buf, data...)
}

func appendOptionChecked(buf []byte, code byte, data []byte) ([]byte, error) {
	if len(data) > maxOptionDataOctet {
		return nil, fmt.Errorf("%w: option %d", ErrOptionTooLong, code)
	}
	return appendOption(buf, code, data), nil
}

// Parse decodes a wire-format DHCPv4 message.
func Parse(buf []byte) (*Message, error) {
	if len(buf) < fixedHeaderLength+4 {
		return nil, ErrShortMessage
	}
	var m Message
	switch buf[0] {
	case opBootRequest:
	case opBootReply:
		m.BootReply = true
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadOp, buf[0])
	}
	m.XID = binary.BigEndian.Uint32(buf[4:8])
	m.Secs = binary.BigEndian.Uint16(buf[8:10])
	m.Broadcast = binary.BigEndian.Uint16(buf[10:12])&0x8000 != 0
	copy(m.CIAddr[:], buf[12:16])
	copy(m.YIAddr[:], buf[16:20])
	copy(m.SIAddr[:], buf[20:24])
	copy(m.GIAddr[:], buf[24:28])
	copy(m.CHAddr[:], buf[28:34])
	if [4]byte(buf[fixedHeaderLength:fixedHeaderLength+4]) != magicCookie {
		return nil, ErrBadMagic
	}

	if err := m.parseOptions(buf[fixedHeaderLength+4:]); err != nil {
		return nil, err
	}
	return &m, nil
}

// parseOptions walks the RFC 2131 TLV option region and fills in the
// message fields this implementation tracks. Unknown options are skipped;
// a truncated length byte or data overrunning the buffer is ErrBadOption.
func (m *Message) parseOptions(opts []byte) error {
	i := 0
	sawType := false
	for i < len(opts) {
		code := opts[i]
		i++
		if code == OptPad {
			continue
		}
		if code == OptEnd {
			break
		}
		if i >= len(opts) {
			return ErrBadOption
		}
		length := int(opts[i])
		i++
		if i+length > len(opts) {
			return ErrBadOption
		}
		data := opts[i : i+length]
		i += length
		switch code {
		case OptMessageType:
			if length != 1 {
				return fmt.Errorf("%w: message type length %d", ErrBadOption, length)
			}
			if data[0] == 0 {
				// Type 0 is unassigned; accepting it would break the
				// AppendTo/Parse symmetry (AppendTo refuses Type 0).
				return fmt.Errorf("%w: message type 0", ErrBadOption)
			}
			m.Type = MessageType(data[0])
			sawType = true
		case OptHostName:
			m.HostName = string(data)
		case OptClientFQDN:
			if length < 3 {
				return fmt.Errorf("%w: FQDN option length %d", ErrBadOption, length)
			}
			m.ClientFQDN = &ClientFQDN{
				Flags: FQDNFlags(data[0]),
				Name:  string(data[3:]),
			}
		case OptRequestedIP:
			if length != 4 {
				return fmt.Errorf("%w: requested IP length %d", ErrBadOption, length)
			}
			copy(m.RequestedIP[:], data)
		case OptLeaseTime:
			if length != 4 {
				return fmt.Errorf("%w: lease time length %d", ErrBadOption, length)
			}
			m.LeaseTime = time.Duration(binary.BigEndian.Uint32(data)) * time.Second
		case OptServerID:
			if length != 4 {
				return fmt.Errorf("%w: server ID length %d", ErrBadOption, length)
			}
			copy(m.ServerID[:], data)
		case OptClientID:
			m.ClientID = append([]byte(nil), data...)
		default:
			// Unknown options are skipped, per RFC 2131.
		}
	}
	if !sawType {
		return ErrNoMessageType
	}
	return nil
}
