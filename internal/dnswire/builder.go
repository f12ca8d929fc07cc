package dnswire

import (
	"encoding/binary"
	"errors"
)

// Section names one of the four parts of a message body.
type Section int

// Sections, in wire order.
const (
	SectionQuestion Section = iota
	SectionAnswer
	SectionAuthority
	SectionAdditional
)

// Builder is the one message writer: it appends a message to a buffer the
// caller supplies, section by section in wire order, compressing names
// against everything written so far. Message.AppendTo is built on it; the
// authoritative server and the scanning clients drive it directly so that a
// reply or a query is written once, into reused storage, with no Message in
// between.
//
// Like append, every method takes the message so far and returns it grown;
// the Builder itself holds only the compression table and the section
// counts — no pointer into the buffer or into the names it was given — so
// both it and a fixed-size buffer can live on the caller's stack. The first
// failure (a label or name the wire format cannot hold) sticks: later calls
// return the message unchanged and Finish reports it.
type Builder struct {
	cmap      compressionMap
	counts    [4]uint16
	body      int // where the records start: the end of the question section
	truncated bool
	err       error
}

// Begin starts a message in buf's storage, overwriting whatever buf held:
// compression pointers count from the message's first octet, so a message
// cannot start anywhere else. The header is reserved here and written by
// Finish.
func (b *Builder) Begin(buf []byte) []byte {
	*b = Builder{body: headerLen}
	return append(buf[:0], make([]byte, headerLen)...)
}

// Question appends a question whose name is in presentation form, as
// View.Question and AppendReverseName produce it.
//
// It must not be inlined into other packages: the compiler has no escape
// analysis for a generic instantiation reached that way, and would move the
// caller's Builder and name buffer to the heap on every call.
//
//go:noinline
func (b *Builder) Question(buf, name []byte, t Type, c Class) []byte {
	return addQuestion(b, buf, name, t, c)
}

func addQuestion[S nameText](b *Builder, buf []byte, name S, t Type, c Class) []byte {
	if buf = addName(b, buf, name); b.err != nil {
		return buf
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(t))
	buf = binary.BigEndian.AppendUint16(buf, uint16(c))
	b.counts[SectionQuestion]++
	b.body = len(buf)
	return buf
}

// Questions echoes every question of v, names in canonical form — the
// question section a response to v carries. A first question whose name is
// already written the way the Builder writes it (see plainName) is copied
// as it stands, and its suffixes are recorded for compression as writing
// it would record them; any other question is decoded and written.
func (b *Builder) Questions(buf []byte, v *View) []byte {
	off := headerLen
	for i := 0; i < v.counts[SectionQuestion]; i++ {
		if end, ok := plainName(v.msg, off); ok && len(buf) == headerLen && b.err == nil {
			for pos := off; v.msg[pos] != 0; pos += 1 + int(v.msg[pos]) {
				b.cmap.record(len(buf)+pos-off, end-1-pos)
			}
			buf = append(buf, v.msg[off:end+4]...)
			b.counts[SectionQuestion]++
			b.body = len(buf)
			off = end + 4
			continue
		}
		name, next, _ := walkName(make([]byte, 0, MaxNameLen+1), v.msg, off, true) // v was validated by Parse
		buf = b.Question(buf, name, Type(binary.BigEndian.Uint16(v.msg[next:])), Class(binary.BigEndian.Uint16(v.msg[next+2:])))
		off = next + 4
	}
	return buf
}

// addName appends a name, compressed against the message so far.
func addName[S nameText](b *Builder, buf []byte, name S) []byte {
	if b.err != nil {
		return buf
	}
	out, err := appendCompressedName(buf, name, &b.cmap)
	if err != nil {
		b.err = err
		return buf
	}
	return out
}

// Record appends rr to section sec. Sections are written in wire order;
// records of one section are contiguous.
func (b *Builder) Record(buf []byte, sec Section, rr Record) []byte {
	if buf = addName(b, buf, rr.Name); b.err != nil {
		return buf
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Type))
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Class))
	buf = binary.BigEndian.AppendUint32(buf, rr.TTL)
	// Reserve the RDLENGTH slot, fill after encoding.
	lenAt := len(buf)
	buf = append(buf, 0, 0)
	switch d := rr.Data.(type) {
	case nil:
		b.err = errors.New("dnswire: record has nil data")
	case PTRData:
		buf = addName(b, buf, d.Target)
	case NSData:
		buf = addName(b, buf, d.Target)
	case CNAMEData:
		buf = addName(b, buf, d.Target)
	case AData:
		buf = append(buf, d.Addr[:]...)
	case SOAData:
		buf = addName(b, buf, d.MName)
		buf = addName(b, buf, d.RName)
		buf = binary.BigEndian.AppendUint32(buf, d.Serial)
		buf = binary.BigEndian.AppendUint32(buf, d.Refresh)
		buf = binary.BigEndian.AppendUint32(buf, d.Retry)
		buf = binary.BigEndian.AppendUint32(buf, d.Expire)
		buf = binary.BigEndian.AppendUint32(buf, d.Minimum)
	case TXTData:
		if len(d.Strings) == 0 {
			b.err = errors.New("dnswire: TXT record with no strings")
		}
		for _, s := range d.Strings {
			if len(s) > 255 {
				b.err = errors.New("dnswire: TXT string exceeds 255 octets")
				break
			}
			buf = append(buf, byte(len(s)))
			buf = append(buf, s...)
		}
	case RawData:
		buf = append(buf, d.Bytes...)
	}
	rdlen := len(buf) - lenAt - 2
	if b.err == nil && rdlen > 0xFFFF {
		b.err = errors.New("dnswire: RDATA exceeds 65535 octets")
	}
	if b.err != nil {
		return buf
	}
	binary.BigEndian.PutUint16(buf[lenAt:], uint16(rdlen))
	b.counts[sec]++
	return buf
}

// Truncate cuts the message back to its header and question section and
// makes Finish set the TC bit: the reply a UDP responder sends in place of
// one that does not fit, telling the client to retry over TCP.
func (b *Builder) Truncate(buf []byte) []byte {
	b.counts[SectionAnswer], b.counts[SectionAuthority], b.counts[SectionAdditional] = 0, 0, 0
	b.truncated = true
	return buf[:b.body]
}

// Finish writes header h and the section counts into the space Begin
// reserved and returns the message, or the first error a name or record
// caused.
func (b *Builder) Finish(buf []byte, h Header) ([]byte, error) {
	if b.err != nil {
		return nil, b.err
	}
	h.Truncated = h.Truncated || b.truncated
	binary.BigEndian.PutUint16(buf[0:], h.ID)
	binary.BigEndian.PutUint16(buf[2:], h.flags())
	for i, n := range b.counts {
		binary.BigEndian.PutUint16(buf[4+2*i:], n)
	}
	return buf, nil
}

// PackedRecord is a record encoded once for the many replies that carry it
// after a question about a name at or under its owner — a zone's SOA,
// which every negative answer holds. It keeps the bytes Builder.Record
// writes for the record right after a question for the owner itself, where
// each compression pointer sits in them, and the suffixes they add to the
// compression table; Builder.Packed moves those to wherever the owner and
// the record sit in another reply. Create one with PackRecord; it is
// immutable and safe to share.
type PackedRecord struct {
	owner []byte // the owner's name as the template's question holds it
	wire  []byte // the record as written at offset at of the template
	at    int    // where the record starts in the template
	nptrs int
	ptrs  [3]uint16 // offsets in wire of its compression pointers
	nsufs int
	sufs  [len(compressionMap{}.offs)][2]uint16 // what it adds to the compression table: offset in wire, presentation length
}

// PackRecord encodes rr for Builder.Packed. A record that cannot be placed
// that way — one that does not encode, or whose data holds a name at or
// under its owner, which a question under the owner could compress — gives
// a PackedRecord that Packed always declines, so its callers write rr
// through Builder.Record instead. The template is written on the stack; the
// PackedRecord and one slice holding the owner and the record are all it
// allocates.
func PackRecord(rr Record) *PackedRecord {
	p := &PackedRecord{}
	var names [2]Name
	n := 0
	switch d := rr.Data.(type) {
	case PTRData:
		names[0], n = d.Target, 1
	case NSData:
		names[0], n = d.Target, 1
	case CNAMEData:
		names[0], n = d.Target, 1
	case SOAData:
		names, n = [2]Name{d.MName, d.RName}, 2
	}
	for _, name := range names[:n] {
		if name.HasSuffix(rr.Name) {
			return p
		}
	}
	var scratch [512]byte
	var b Builder
	buf := b.Question(b.Begin(scratch[:0]), []byte(rr.Name), rr.Type, rr.Class)
	at, recorded := len(buf), b.cmap.n
	if buf = b.Record(buf, SectionAnswer, rr); b.err != nil || b.cmap.n == len(b.cmap.offs) {
		return p
	}
	// Every name the record holds ends in at most one pointer: the owner
	// first, then its data's names, back to back from the RDATA's start.
	off := at
	for i := 0; i <= n; i++ {
		if i == 1 {
			off += 10 // type, class, TTL and RDLENGTH
		}
		for buf[off] != 0 && buf[off] < 0xC0 {
			off += 1 + int(buf[off])
		}
		if buf[off] == 0 {
			off++
		} else {
			p.ptrs[p.nptrs] = uint16(off - at)
			p.nptrs++
			off += 2
		}
	}
	for i := recorded; i < b.cmap.n; i++ {
		p.sufs[p.nsufs] = [2]uint16{b.cmap.offs[i] - uint16(at), b.cmap.lens[i]}
		p.nsufs++
	}
	owner := buf[headerLen : at-4]
	kept := append(append(make([]byte, 0, len(owner)+len(buf)-at), owner...), buf[at:]...)
	p.owner, p.wire, p.at = kept[:len(owner)], kept[len(owner):], at
	return p
}

// Packed appends p's record to section sec of a reply that so far holds
// its one question, whose name is at or under the record's owner, and
// reports whether it did: the bytes and the compression table are what
// Record would leave. It declines — the caller then calls Record — when p
// cannot be placed (see PackRecord), when the reply holds anything but one
// question, when the question's name is not at or under the owner as
// written (other case), or when the compression table could not hold what
// Record would add to it.
func (b *Builder) Packed(buf []byte, sec Section, p *PackedRecord) ([]byte, bool) {
	if p.wire == nil || b.err != nil || b.counts != [4]uint16{SectionQuestion: 1} || len(buf) != b.body ||
		b.cmap.n == len(b.cmap.offs) || b.cmap.n+p.nsufs > len(b.cmap.offs) || len(buf)+len(p.wire) >= 0x4000 {
		return buf, false
	}
	// With the table never full, the question's every suffix is in it. The
	// question is the message's first name, written without pointers, so
	// the suffix as long as the owner is the owner when its bytes are, and
	// the owner's own suffixes follow it as they do in the template, whose
	// question is the owner at the header's end.
	owner := -1
	for i := 0; i < b.cmap.n; i++ {
		if int(b.cmap.lens[i]) == len(p.owner)-1 {
			owner = int(b.cmap.offs[i])
			break
		}
	}
	if owner < 0 || string(buf[owner:owner+len(p.owner)]) != string(p.owner) {
		return buf, false
	}
	at := len(buf)
	buf = append(buf, p.wire...)
	rec := buf[at:]
	for _, ptr := range p.ptrs[:p.nptrs] {
		target := int(binary.BigEndian.Uint16(rec[ptr:]) & 0x3FFF)
		if target >= p.at {
			target += at - p.at
		} else {
			target += owner - headerLen
		}
		binary.BigEndian.PutUint16(rec[ptr:], 0xC000|uint16(target))
	}
	for _, s := range p.sufs[:p.nsufs] {
		b.cmap.record(at+int(s[0]), int(s[1]))
	}
	b.counts[sec]++
	return buf, true
}
