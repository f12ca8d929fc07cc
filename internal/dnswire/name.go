// Package dnswire implements the DNS wire format of RFC 1034/1035: message
// headers, domain names with compression pointers, questions, and the
// resource records needed for reverse-DNS measurement (PTR, A, SOA, NS, TXT,
// CNAME). It also provides the in-addr.arpa helpers used to translate
// between IPv4 addresses and reverse-lookup names.
//
// The codec is written from scratch against the RFCs and is independent of
// the net package's resolver. It is the single source of truth for every DNS
// packet that crosses the simulated fabric or a real UDP socket in this
// repository.
package dnswire

import (
	"errors"
	"strings"
)

// Limits from RFC 1035 §2.3.4 and §3.1.
const (
	// MaxLabelLen is the maximum length of a single label.
	MaxLabelLen = 63
	// MaxNameLen is the maximum length of an encoded domain name,
	// including the root length octet.
	MaxNameLen = 255
	// maxPointerHops bounds compression-pointer chains to defeat loops.
	maxPointerHops = 32
)

// Errors returned by name encoding and decoding.
var (
	ErrNameTooLong    = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong   = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel     = errors.New("dnswire: empty label")
	ErrPointerLoop    = errors.New("dnswire: compression pointer loop")
	ErrTruncatedName  = errors.New("dnswire: truncated name")
	ErrReservedLabel  = errors.New("dnswire: reserved label type")
	ErrForwardPointer = errors.New("dnswire: compression pointer is not backward")
)

// Name is a fully-qualified domain name in presentation form, always stored
// with a trailing dot (the root label). The zero value is invalid; use
// MustName, ParseName, or functions that return Names.
type Name string

// Root is the DNS root name.
const Root Name = "."

// ParseName normalizes s into a Name. It lowercases (DNS names compare
// case-insensitively), ensures a trailing dot, and validates label and name
// lengths. Escapes are not supported: this codec targets hostnames, which
// use the LDH subset plus underscore.
func ParseName(s string) (Name, error) {
	if s == "" || s == "." {
		return Root, nil
	}
	s = strings.ToLower(s)
	if !strings.HasSuffix(s, ".") {
		s += "."
	}
	// Validate by encoding into a scratch buffer.
	n := Name(s)
	if _, err := AppendName(nil, n); err != nil {
		return "", err
	}
	return n, nil
}

// MustName is ParseName that panics on error, for constants and tests.
func MustName(s string) Name {
	n, err := ParseName(s)
	if err != nil {
		panic(err)
	}
	return n
}

// String returns the presentation form.
func (n Name) String() string { return string(n) }

// IsRoot reports whether n is the root name.
func (n Name) IsRoot() bool { return n == Root || n == "" }

// Labels returns the labels of n, most-specific first, excluding the root.
func (n Name) Labels() []string {
	if n.IsRoot() {
		return nil
	}
	s := strings.TrimSuffix(string(n), ".")
	return strings.Split(s, ".")
}

// HasSuffix reports whether n is equal to zone or falls within it.
func (n Name) HasSuffix(zone Name) bool {
	if zone.IsRoot() {
		return true
	}
	ns, zs := string(n), string(zone)
	if ns == zs {
		return true
	}
	return strings.HasSuffix(ns, "."+zs)
}

// Prepend returns label.n. The label is lowercased.
func (n Name) Prepend(label string) (Name, error) {
	if label == "" {
		return "", ErrEmptyLabel
	}
	if len(label) > MaxLabelLen {
		return "", ErrLabelTooLong
	}
	child := Name(strings.ToLower(label) + "." + string(n))
	if _, err := AppendName(nil, child); err != nil {
		return "", err
	}
	return child, nil
}

// AppendName appends the uncompressed wire encoding of n to buf.
func AppendName(buf []byte, n Name) ([]byte, error) {
	if n.IsRoot() {
		return append(buf, 0), nil
	}
	s := string(n)
	if !strings.HasSuffix(s, ".") {
		s += "."
	}
	total := 0
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] != '.' {
			continue
		}
		label := s[start:i]
		if len(label) == 0 {
			return nil, ErrEmptyLabel
		}
		if len(label) > MaxLabelLen {
			return nil, ErrLabelTooLong
		}
		total += len(label) + 1
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
		start = i + 1
	}
	total++ // root octet
	if total > MaxNameLen {
		return nil, ErrNameTooLong
	}
	return append(buf, 0), nil
}

// nameText is a name in presentation form, held either as a Name or as the
// bytes a reader decoded into its caller's buffer. The writers below are
// generic over it so that echoing a question read in place costs no
// conversion; they only index and measure s, which neither form allocates
// for.
type nameText interface{ ~string | ~[]byte }

// compressionMap tracks names already emitted into a message so later
// occurrences can be replaced by pointers (RFC 1035 §4.1.4). It records
// where each suffix starts in the message and how long it is in
// presentation form, and answers lookups by comparing the candidate
// against the wire bytes at the recorded offsets: no text is retained, so
// the source of a name may be a buffer that is reused straight after. It is
// a small inline table rather than a map: a typical message carries a
// handful of suffixes, and a length check over an array that lives on the
// caller's stack rejects almost every entry before any bytes are compared.
// When the table fills, later names are simply emitted uncompressed —
// compression is an optimization the wire format never requires.
type compressionMap struct {
	n    int
	offs [24]uint16
	lens [24]uint16
}

// presentationLen is len(s) counting the trailing dot a sloppily built Name
// may lack.
func presentationLen[S nameText](s S) int {
	if n := len(s); n > 0 && s[n-1] != '.' {
		return n + 1
	}
	return len(s)
}

// lookup returns the offset at which the suffix s[start:], of presentation
// length plen, was emitted into msg, if it was.
func lookup[S nameText](c *compressionMap, msg []byte, s S, start, plen int) (int, bool) {
	for i := 0; i < c.n; i++ {
		if c.lens[i] == uint16(plen) && wireNameIs(msg, int(c.offs[i]), s, start) {
			return int(c.offs[i]), true
		}
	}
	return 0, false
}

// wireNameIs reports whether the name this package wrote at msg[off:] is
// s[pos:]. Labels it wrote hold no dots and its pointers are valid, so the
// walk needs none of the reader's checks.
func wireNameIs[S nameText](msg []byte, off int, s S, pos int) bool {
	for {
		b := int(msg[off])
		switch {
		case b == 0:
			return pos >= len(s)
		case b >= 0xC0:
			off = (b&0x3F)<<8 | int(msg[off+1])
		default:
			end := pos + b
			if end > len(s) || (end < len(s) && s[end] != '.') {
				return false
			}
			for i := 0; i < b; i++ {
				if msg[off+1+i] != s[pos+i] {
					return false
				}
			}
			off += 1 + b
			pos = end + 1
		}
	}
}

// record remembers that a suffix of presentation length plen was emitted
// at off, if there is room. Offsets at or past 0x4000 are unusable as
// pointer targets and are not recorded.
func (c *compressionMap) record(off, plen int) {
	if c.n < len(c.offs) && off < 0x4000 {
		c.offs[c.n] = uint16(off)
		c.lens[c.n] = uint16(plen)
		c.n++
	}
}

// appendCompressedName appends s to buf, which holds the message from its
// first octet, using the compression pointers recorded in cmap. Pointers
// can only address the first 16384 octets of a message; names beyond that
// are emitted uncompressed.
//
// Names are in presentation form with a trailing dot, so every suffix of a
// name starts at an index of s: the left-to-right walk below checks, emits
// and records suffixes without materializing label slices or joined strings
// (this is the hottest function of a full PTR sweep).
func appendCompressedName[S nameText](buf []byte, s S, cmap *compressionMap) ([]byte, error) {
	if len(s) == 0 || (len(s) == 1 && s[0] == '.') {
		return append(buf, 0), nil
	}
	full := presentationLen(s)
	if full+1 > MaxNameLen { // labels, their length octets and the root, as AppendWire counts them
		return nil, ErrNameTooLong
	}
	for start := 0; start < len(s); {
		if off, known := lookup(cmap, buf, s, start, full-start); known {
			return append(buf, byte(0xC0|off>>8), byte(off)), nil
		}
		cmap.record(len(buf), full-start)
		// One pass finds the label's end and copies it; the length octet is
		// filled in behind it.
		lenAt := len(buf)
		buf = append(buf, 0)
		dot := start
		for ; dot < len(s) && s[dot] != '.'; dot++ {
			buf = append(buf, s[dot])
		}
		if dot == start {
			return nil, ErrEmptyLabel
		}
		if dot-start > MaxLabelLen {
			return nil, ErrLabelTooLong
		}
		buf[lenAt] = byte(dot - start)
		start = dot + 1
	}
	return append(buf, 0), nil
}

// appendUncompressedName appends s, in presentation form, uncompressed:
// the bytes appendCompressedName writes for it when nothing before it
// compresses, with the same errors. It copies the text behind a spare
// octet in one move, then turns each dot into the length of the label
// after it — the spare octet taking the first label's, the trailing dot
// becoming the root.
func appendUncompressedName[S nameText](buf []byte, s S) ([]byte, error) {
	if len(s) == 0 || (len(s) == 1 && s[0] == '.') {
		return append(buf, 0), nil
	}
	full := presentationLen(s)
	if full+1 > MaxNameLen {
		return nil, ErrNameTooLong
	}
	lenAt := len(buf)
	buf = append(append(buf, 0), s...)
	if full > len(s) {
		buf = append(buf, '.')
	}
	for i := lenAt + 1; i < len(buf); i++ {
		if buf[i] != '.' {
			continue
		}
		switch n := i - lenAt - 1; {
		case n == 0:
			return nil, ErrEmptyLabel
		case n > MaxLabelLen:
			return nil, ErrLabelTooLong
		default:
			buf[lenAt] = byte(n)
		}
		lenAt = i
	}
	buf[lenAt] = 0
	return buf, nil
}

// walkName is the one name reader: it walks the possibly-compressed name in
// msg at off, enforcing the label, name, pointer-direction and hop limits,
// and returns the offset just past the name's encoding at its original
// position (pointers do not advance the outer offset past their two
// octets). It has two modes that share those checks. With decode set it
// appends the name's canonical presentation form — labels each followed by
// a dot, lowercased, the root as a lone dot — to dst and returns the
// extended dst; without, it only validates, touching no label octet, and
// returns dst as given.
//
// A name is at most MaxNameLen octets of labels and dots, so a dst with that
// much room (a [MaxNameLen+1]byte on the caller's stack) is never outgrown
// by a name of ASCII labels, and reading one allocates nothing.
func walkName(dst, msg []byte, off int, decode bool) ([]byte, int, error) {
	mark := len(dst)
	ptrBudget := maxPointerHops
	pos := off
	end := -1 // offset after the name at the original position
	total := 0
	var high byte
	for {
		if pos >= len(msg) {
			return dst, 0, ErrTruncatedName
		}
		b := msg[pos]
		switch {
		case b == 0:
			if end < 0 {
				end = pos + 1
			}
			if !decode {
				return dst, end, nil
			}
			if len(dst) == mark {
				return append(dst, '.'), end, nil
			}
			if high >= 0x80 {
				// Octets outside ASCII fold the way they always have here:
				// as UTF-8 where they form it, as U+FFFD where they do not.
				dst = append(dst[:mark], strings.ToLower(string(dst[mark:]))...)
			}
			return dst, end, nil
		case b&0xC0 == 0xC0:
			if pos+1 >= len(msg) {
				return dst, 0, ErrTruncatedName
			}
			target := int(b&0x3F)<<8 | int(msg[pos+1])
			if end < 0 {
				end = pos + 2
			}
			if target >= pos {
				return dst, 0, ErrForwardPointer
			}
			ptrBudget--
			if ptrBudget <= 0 {
				return dst, 0, ErrPointerLoop
			}
			pos = target
		case b&0xC0 != 0:
			return dst, 0, ErrReservedLabel
		default:
			length := int(b)
			if pos+1+length > len(msg) {
				return dst, 0, ErrTruncatedName
			}
			total += length + 1
			if total > MaxNameLen {
				return dst, 0, ErrNameTooLong
			}
			if decode {
				at := len(dst)
				dst = append(append(dst, msg[pos+1:pos+1+length]...), '.')
				label := dst[at : at+length]
				for i, c := range label {
					high |= c
					if 'A' <= c && c <= 'Z' {
						label[i] = c + ('a' - 'A')
					}
				}
			}
			pos += 1 + length
		}
	}
}

// plainName reports whether the name at msg[off:], which Parse validated,
// is written the way appendCompressedName writes a name that nothing
// before it compresses: no pointer, every label ASCII with no upper case
// and no dot, at most MaxNameLen octets in all. Such a name's wire bytes
// are what writing its canonical presentation form produces. It returns
// the offset just past the name.
func plainName(msg []byte, off int) (int, bool) {
	pos := off
	for {
		n := int(msg[pos])
		if n == 0 {
			return pos + 1, pos+1-off <= MaxNameLen
		}
		if n >= 0xC0 {
			return 0, false
		}
		for _, c := range msg[pos+1 : pos+1+n] {
			if c >= 0x80 || c == '.' || ('A' <= c && c <= 'Z') {
				return 0, false
			}
		}
		pos += 1 + n
	}
}

// decodedIs is nameIs by decoding: the name at msg[off:] through walkName,
// compared with s.
func decodedIs(msg []byte, off int, s []byte) bool {
	var nb [MaxNameLen + 1]byte
	name, _, _ := walkName(nb[:0], msg, off, true)
	return string(name) == string(s)
}

// nameIs reports whether the name at msg[off:], which Parse validated,
// decodes to s — what comparing walkName's output with s would say, read
// in place: ASCII upper case folds and pointers are followed. Where a name
// holds an octet of 0x80 or more, its decoded form goes through
// strings.ToLower, which may change its length, so once one is met the
// name is decoded and compared. Up to that octet the decoded form is the
// folded wire bytes, position for position, so a difference found before
// it stands.
func nameIs(msg []byte, off int, s []byte) bool {
	start := off
	pos := 0
	for {
		b := int(msg[off])
		switch {
		case b == 0:
			if pos == 0 {
				return string(s) == "."
			}
			return pos == len(s)
		case b >= 0xC0:
			off = (b&0x3F)<<8 | int(msg[off+1])
		default:
			label := msg[off+1 : off+1+b]
			end := pos + b
			if end >= len(s) || s[end] != '.' {
				return decodedIs(msg, start, s) // a rare miss: the label may not be ASCII
			}
			for i, c := range label {
				if c >= 0x80 {
					return decodedIs(msg, start, s)
				}
				if 'A' <= c && c <= 'Z' {
					c += 'a' - 'A'
				}
				if c != s[pos+i] {
					return false
				}
			}
			off += 1 + b
			pos = end + 1
		}
	}
}
