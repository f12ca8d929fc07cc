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
// question section a response to v carries.
func (b *Builder) Questions(buf []byte, v *View) []byte {
	var nb [MaxNameLen + 1]byte
	off := headerLen
	for i := 0; i < v.counts[SectionQuestion]; i++ {
		name, next, _ := appendNameAt(nb[:0], v.msg, off) // v was validated by Parse
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
