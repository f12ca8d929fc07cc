package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Errors returned by message decoding.
var (
	ErrShortMessage = errors.New("dnswire: message shorter than header")
	ErrTrailingData = errors.New("dnswire: trailing bytes after message")
	ErrCountBounds  = errors.New("dnswire: section count exceeds message size")
)

const headerLen = 12

// View is a wire-format message read in place. Parse checks the whole
// message once — every name, record and length, with the same verdicts
// Unmarshal gives, because Unmarshal is the same walk — and after that a
// View hands out header fields, the question and records by offset without
// allocating; a name becomes a Name only where the caller asks for one.
//
// A View aliases the bytes it was parsed from: it, its iterators and its
// RecordViews are valid only until those bytes are changed or reused.
type View struct {
	// Header is the unpacked fixed header.
	Header Header

	msg    []byte
	counts [4]int
	start  [4]int // where each section begins
}

// Parse validates msg and returns a View of it.
func Parse(msg []byte) (View, error) { return parse(msg, nil) }

// parse is the one message reader. It walks msg once, checking everything
// Unmarshal has ever checked, and fills m on the way when m is not nil.
func parse(msg []byte, m *Message) (View, error) {
	if len(msg) < headerLen {
		return View{}, ErrShortMessage
	}
	v := View{
		Header: headerFrom(binary.BigEndian.Uint16(msg[0:2]), binary.BigEndian.Uint16(msg[2:4])),
		msg:    msg,
	}
	for i := range v.counts {
		v.counts[i] = int(binary.BigEndian.Uint16(msg[4+2*i:]))
	}
	// A question needs at least 5 octets, a record at least 11.
	if headerLen+v.counts[0]*5+(v.counts[1]+v.counts[2]+v.counts[3])*11 > len(msg) {
		return View{}, ErrCountBounds
	}
	if m != nil {
		m.Header = v.Header
	}

	var nb [MaxNameLen + 1]byte
	off := headerLen
	v.start[SectionQuestion] = off
	for i := 0; i < v.counts[SectionQuestion]; i++ {
		name, next, err := appendNameAt(nb[:0], msg, off)
		if err != nil {
			return View{}, fmt.Errorf("question %d: %w", i, err)
		}
		if next+4 > len(msg) {
			return View{}, ErrTruncatedName
		}
		if m != nil {
			m.Questions = append(m.Questions, Question{
				Name:  Name(name),
				Type:  Type(binary.BigEndian.Uint16(msg[next:])),
				Class: Class(binary.BigEndian.Uint16(msg[next+2:])),
			})
		}
		off = next + 4
	}
	for sec := SectionAnswer; sec <= SectionAdditional; sec++ {
		v.start[sec] = off
		for i := 0; i < v.counts[sec]; i++ {
			var rec Record
			var rr *Record
			if m != nil {
				rr = &rec
			}
			_, next, err := readRecord(msg, off, rr)
			if err != nil {
				return View{}, fmt.Errorf("record %d: %w", i, err)
			}
			if m != nil {
				*m.section(sec) = append(*m.section(sec), rec)
			}
			off = next
		}
	}
	if off != len(msg) {
		return View{}, ErrTrailingData
	}
	return v, nil
}

// RecordView is one resource record read in place.
type RecordView struct {
	Type  Type
	Class Class
	TTL   uint32

	msg     []byte
	nameOff int
	dataOff int
	dataLen int
}

// readRecord is the one record reader: it checks the record in msg at off —
// owner name, fixed part, RDATA length and the RDATA's own structure for
// the types this codec knows — and returns it in place with the offset of
// what follows. When rr is not nil it is filled with the decoded record.
func readRecord(msg []byte, off int, rr *Record) (RecordView, int, error) {
	var nb [MaxNameLen + 1]byte
	rv := RecordView{msg: msg, nameOff: off}
	name, off, err := appendNameAt(nb[:0], msg, off)
	if err != nil {
		return rv, 0, err
	}
	if off+10 > len(msg) {
		return rv, 0, ErrTruncatedName
	}
	rv.Type = Type(binary.BigEndian.Uint16(msg[off:]))
	rv.Class = Class(binary.BigEndian.Uint16(msg[off+2:]))
	rv.TTL = binary.BigEndian.Uint32(msg[off+4:])
	rdlen := int(binary.BigEndian.Uint16(msg[off+8:]))
	off += 10
	if off+rdlen > len(msg) {
		return rv, 0, fmt.Errorf("dnswire: RDATA length %d overruns message", rdlen)
	}
	rv.dataOff, rv.dataLen = off, rdlen
	rdata := msg[off : off+rdlen]
	rdEnd := off + rdlen
	if rr != nil {
		*rr = Record{Name: Name(name), Type: rv.Type, Class: rv.Class, TTL: rv.TTL}
	}
	// UPDATE deletion operations (class ANY/NONE) carry empty RDATA even
	// for types that otherwise require one (RFC 2136 §2.5.2).
	if rdlen == 0 && rv.Class != ClassIN {
		if rr != nil {
			rr.Data = RawData{RType: rv.Type}
		}
		return rv, rdEnd, nil
	}
	switch rv.Type {
	case TypePTR, TypeNS, TypeCNAME:
		target, n, err := appendNameAt(nb[:0], msg, off)
		if err != nil {
			return rv, 0, err
		}
		if n != rdEnd {
			return rv, 0, fmt.Errorf("dnswire: %s RDATA length mismatch", rv.Type)
		}
		if rr != nil {
			switch rv.Type {
			case TypePTR:
				rr.Data = PTRData{Target: Name(target)}
			case TypeNS:
				rr.Data = NSData{Target: Name(target)}
			default:
				rr.Data = CNAMEData{Target: Name(target)}
			}
		}
	case TypeA:
		if rdlen != 4 {
			return rv, 0, fmt.Errorf("dnswire: A RDATA length %d, want 4", rdlen)
		}
		if rr != nil {
			rr.Data = AData{Addr: [4]byte(rdata)}
		}
	case TypeSOA:
		mname, pos, err := appendNameAt(nb[:0], msg, off)
		if err != nil {
			return rv, 0, err
		}
		var d SOAData
		if rr != nil {
			d.MName = Name(mname)
		}
		rname, pos, err := appendNameAt(nb[:0], msg, pos)
		if err != nil {
			return rv, 0, err
		}
		if pos+20 != rdEnd {
			return rv, 0, fmt.Errorf("dnswire: SOA RDATA length mismatch")
		}
		if rr != nil {
			d.RName = Name(rname)
			d.Serial = binary.BigEndian.Uint32(msg[pos:])
			d.Refresh = binary.BigEndian.Uint32(msg[pos+4:])
			d.Retry = binary.BigEndian.Uint32(msg[pos+8:])
			d.Expire = binary.BigEndian.Uint32(msg[pos+12:])
			d.Minimum = binary.BigEndian.Uint32(msg[pos+16:])
			rr.Data = d
		}
	case TypeTXT:
		var d TXTData
		strs := 0
		for pos := 0; pos < len(rdata); strs++ {
			l := int(rdata[pos])
			if pos+1+l > len(rdata) {
				return rv, 0, fmt.Errorf("dnswire: TXT string overruns RDATA")
			}
			if rr != nil {
				d.Strings = append(d.Strings, string(rdata[pos+1:pos+1+l]))
			}
			pos += 1 + l
		}
		if strs == 0 {
			return rv, 0, fmt.Errorf("dnswire: empty TXT RDATA")
		}
		if rr != nil {
			rr.Data = d
		}
	default:
		if rr != nil {
			rr.Data = RawData{RType: rv.Type, Bytes: append(make([]byte, 0, rdlen), rdata...)}
		}
	}
	return rv, rdEnd, nil
}

// Count returns how many entries section s holds.
func (v *View) Count(s Section) int { return v.counts[s] }

// Question appends the first question's name to dst, in canonical
// presentation form, and returns it with the question's type and class. A
// dst with room for MaxNameLen+1 octets is never outgrown by a name of
// ASCII labels. Call it only when Count(SectionQuestion) > 0.
func (v *View) Question(dst []byte) (name []byte, t Type, c Class) {
	name, next, _ := appendNameAt(dst, v.msg, headerLen) // validated by Parse
	return name, Type(binary.BigEndian.Uint16(v.msg[next:])), Class(binary.BigEndian.Uint16(v.msg[next+2:]))
}

// Records iterates over the records of section s (not SectionQuestion).
func (v *View) Records(s Section) Records {
	return Records{msg: v.msg, off: v.start[s], left: v.counts[s]}
}

// Records is an iterator over one section's records.
type Records struct {
	msg  []byte
	off  int
	left int
}

// Next returns the next record, or false when the section is exhausted.
func (it *Records) Next() (RecordView, bool) {
	if it.left == 0 {
		return RecordView{}, false
	}
	rv, next, _ := readRecord(it.msg, it.off, nil) // validated by Parse
	it.off = next
	it.left--
	return rv, true
}

// Owner appends the record's owner name, in canonical presentation form.
func (r RecordView) Owner(dst []byte) []byte {
	name, _, _ := appendNameAt(dst, r.msg, r.nameOff)
	return name
}

// Target appends the name a PTR, NS or CNAME record's RDATA holds. It
// reports false for other types and for the empty RDATA of an UPDATE
// deletion.
func (r RecordView) Target(dst []byte) ([]byte, bool) {
	if r.dataLen == 0 || (r.Type != TypePTR && r.Type != TypeNS && r.Type != TypeCNAME) {
		return dst, false
	}
	name, _, _ := appendNameAt(dst, r.msg, r.dataOff)
	return name, true
}
