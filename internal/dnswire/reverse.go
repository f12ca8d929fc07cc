package dnswire

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// IPv4 is an IPv4 address in host-independent form. It is the address type
// used throughout this repository (the net package types carry more
// machinery than the simulation needs and allocate when formatting).
type IPv4 [4]byte

// ParseIPv4 parses dotted-quad notation.
func ParseIPv4(s string) (IPv4, error) {
	var ip IPv4
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return ip, fmt.Errorf("dnswire: %q is not a dotted quad", s)
	}
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 || (len(p) > 1 && p[0] == '0') {
			return ip, fmt.Errorf("dnswire: %q is not a dotted quad", s)
		}
		ip[i] = byte(v)
	}
	return ip, nil
}

// MustIPv4 is ParseIPv4 that panics on error, for constants and tests.
func MustIPv4(s string) IPv4 {
	ip, err := ParseIPv4(s)
	if err != nil {
		panic(err)
	}
	return ip
}

// IPv4FromUint32 converts a big-endian integer form to an address.
func IPv4FromUint32(v uint32) IPv4 {
	return IPv4{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// Uint32 returns the big-endian integer form.
func (ip IPv4) Uint32() uint32 {
	return uint32(ip[0])<<24 | uint32(ip[1])<<16 | uint32(ip[2])<<8 | uint32(ip[3])
}

// String returns dotted-quad notation.
func (ip IPv4) String() string {
	var b [15]byte
	buf := strconv.AppendInt(b[:0], int64(ip[0]), 10)
	buf = append(buf, '.')
	buf = strconv.AppendInt(buf, int64(ip[1]), 10)
	buf = append(buf, '.')
	buf = strconv.AppendInt(buf, int64(ip[2]), 10)
	buf = append(buf, '.')
	buf = strconv.AppendInt(buf, int64(ip[3]), 10)
	return string(buf)
}

// Slash24 returns the /24 prefix containing ip.
func (ip IPv4) Slash24() Prefix { return Prefix{Addr: IPv4{ip[0], ip[1], ip[2], 0}, Bits: 24} }

// Prefix is an IPv4 CIDR prefix.
type Prefix struct {
	Addr IPv4
	Bits int
}

// ParsePrefix parses CIDR notation such as "192.0.2.0/24". The address is
// masked to the prefix length.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("dnswire: %q is not CIDR notation", s)
	}
	ip, err := ParseIPv4(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("dnswire: bad prefix length in %q", s)
	}
	p := Prefix{Addr: ip, Bits: bits}
	p.Addr = IPv4FromUint32(p.Addr.Uint32() & p.mask())
	return p, nil
}

// MustPrefix is ParsePrefix that panics on error.
func MustPrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

func (p Prefix) mask() uint32 {
	if p.Bits <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - p.Bits)
}

// Contains reports whether ip falls within p.
func (p Prefix) Contains(ip IPv4) bool {
	return ip.Uint32()&p.mask() == p.Addr.Uint32()
}

// Overlaps reports whether p and q share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.Contains(q.Addr) || q.Contains(p.Addr)
}

// NumAddresses returns the number of addresses covered by p.
func (p Prefix) NumAddresses() int { return 1 << (32 - p.Bits) }

// First returns the lowest address in p (the network address).
func (p Prefix) First() IPv4 { return p.Addr }

// Last returns the highest address in p (the broadcast address for a
// subnet-sized prefix).
func (p Prefix) Last() IPv4 {
	return IPv4FromUint32(p.Addr.Uint32() | ^p.mask())
}

// Nth returns the i-th address within p, starting from the network address.
func (p Prefix) Nth(i int) IPv4 {
	return IPv4FromUint32(p.Addr.Uint32() + uint32(i))
}

// String returns CIDR notation.
func (p Prefix) String() string { return p.Addr.String() + "/" + strconv.Itoa(p.Bits) }

// Slash24s returns every /24 contained in p. For prefixes longer than /24 it
// returns the single covering /24.
func (p Prefix) Slash24s() []Prefix {
	if p.Bits >= 24 {
		return []Prefix{p.Addr.Slash24()}
	}
	n := 1 << (24 - p.Bits)
	out := make([]Prefix, 0, n)
	base := p.Addr.Uint32()
	for i := 0; i < n; i++ {
		out = append(out, Prefix{Addr: IPv4FromUint32(base + uint32(i)<<8), Bits: 24})
	}
	return out
}

// inAddrArpa is the IPv4 reverse-mapping zone (RFC 1035 §3.5).
const inAddrArpa = "in-addr.arpa."

// AppendReverseName appends the in-addr.arpa name for an IPv4 address to
// dst in presentation form, e.g. 93.184.216.34 ->
// 34.216.184.93.in-addr.arpa. (Example 1 of the paper). It is at most 29
// octets, so a probe can hold the name it asks about on its stack.
func AppendReverseName(dst []byte, ip IPv4) []byte {
	for i := 3; i >= 0; i-- {
		dst = strconv.AppendUint(dst, uint64(ip[i]), 10)
		dst = append(dst, '.')
	}
	return append(dst, inAddrArpa...)
}

// ReverseName returns the in-addr.arpa name for an IPv4 address.
func ReverseName(ip IPv4) Name {
	var b [32]byte
	return Name(AppendReverseName(b[:0], ip))
}

// ReverseZoneFor24 returns the reverse zone name for a /24 prefix, e.g.
// 192.0.2.0/24 -> 2.0.192.in-addr.arpa.
func ReverseZoneFor24(p Prefix) (Name, error) {
	if p.Bits != 24 {
		return "", fmt.Errorf("dnswire: reverse zone wants a /24, got %s", p)
	}
	s := fmt.Sprintf("%d.%d.%d.%s", p.Addr[2], p.Addr[1], p.Addr[0], inAddrArpa)
	return Name(s), nil
}

// ErrNotReverseName reports that a name is not under in-addr.arpa or is
// malformed.
var ErrNotReverseName = errors.New("dnswire: not an in-addr.arpa name")

// ParseReverseName extracts the IPv4 address from an in-addr.arpa name.
func ParseReverseName(n Name) (IPv4, error) {
	var ip IPv4
	s := string(n)
	if !strings.HasSuffix(s, "."+inAddrArpa) {
		return ip, ErrNotReverseName
	}
	s = strings.TrimSuffix(s, "."+inAddrArpa)
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return ip, ErrNotReverseName
	}
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return ip, ErrNotReverseName
		}
		ip[3-i] = byte(v)
	}
	return ip, nil
}
