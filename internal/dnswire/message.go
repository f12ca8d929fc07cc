package dnswire

import "fmt"

// Type is a DNS RR or question type (RFC 1035 §3.2.2).
type Type uint16

// Supported RR types.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypePTR   Type = 12
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeAXFR  Type = 252
	TypeANY   Type = 255
)

// String returns the conventional mnemonic.
func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypePTR:
		return "PTR"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	case TypeAXFR:
		return "AXFR"
	case TypeANY:
		return "ANY"
	default:
		return fmt.Sprintf("TYPE%d", uint16(t))
	}
}

// Class is a DNS class. Only IN is used in practice.
type Class uint16

// Classes.
const (
	ClassIN  Class = 1
	ClassANY Class = 255
)

// String returns the conventional mnemonic.
func (c Class) String() string {
	switch c {
	case ClassIN:
		return "IN"
	case ClassANY:
		return "ANY"
	case ClassNONE:
		return "NONE"
	default:
		return fmt.Sprintf("CLASS%d", uint16(c))
	}
}

// RCode is a DNS response code (RFC 1035 §4.1.1).
type RCode uint8

// Response codes.
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

// String returns the conventional mnemonic.
func (r RCode) String() string {
	switch r {
	case RCodeNoError:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImp:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	default:
		return fmt.Sprintf("RCODE%d", uint8(r))
	}
}

// OpCode is a DNS operation code.
type OpCode uint8

// Operation codes.
const (
	OpQuery  OpCode = 0
	OpUpdate OpCode = 5 // RFC 2136 dynamic update
)

// Header is the fixed 12-octet DNS message header, unpacked.
type Header struct {
	// ID is the transaction identifier, echoed in responses.
	ID uint16
	// Response indicates a response (QR bit).
	Response bool
	// OpCode is the operation requested.
	OpCode OpCode
	// Authoritative indicates an authoritative answer (AA bit).
	Authoritative bool
	// Truncated indicates the message was cut to fit the transport (TC).
	Truncated bool
	// RecursionDesired is copied from query to response (RD).
	RecursionDesired bool
	// RecursionAvailable advertises recursion support (RA).
	RecursionAvailable bool
	// RCode is the response code.
	RCode RCode
}

// Question is a single entry of the question section.
type Question struct {
	Name  Name
	Type  Type
	Class Class
}

// String formats the question in dig-like notation.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", q.Name, q.Class, q.Type)
}

// Record is a resource record. Data holds the type-specific RDATA in decoded
// form (one of the *Data types below).
type Record struct {
	Name  Name
	Type  Type
	Class Class
	TTL   uint32
	Data  RData
}

// String formats the record in zone-file-like notation.
func (r Record) String() string {
	return fmt.Sprintf("%s %d %s %s %s", r.Name, r.TTL, r.Class, r.Type, r.Data)
}

// RData is decoded resource-record data: one of the *Data types below.
// Builder.Record holds the one encoder, a switch over them.
type RData interface {
	fmt.Stringer
	isRData()
}

// PTRData is the RDATA of a PTR record: the hostname an address maps to.
type PTRData struct{ Target Name }

func (PTRData) isRData() {}

// String returns the target name.
func (d PTRData) String() string { return string(d.Target) }

// AData is the RDATA of an A record.
type AData struct{ Addr [4]byte }

func (AData) isRData() {}

// String returns the dotted-quad form.
func (d AData) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", d.Addr[0], d.Addr[1], d.Addr[2], d.Addr[3])
}

// NSData is the RDATA of an NS record.
type NSData struct{ Target Name }

func (NSData) isRData() {}

// String returns the name-server name.
func (d NSData) String() string { return string(d.Target) }

// CNAMEData is the RDATA of a CNAME record.
type CNAMEData struct{ Target Name }

func (CNAMEData) isRData() {}

// String returns the canonical name.
func (d CNAMEData) String() string { return string(d.Target) }

// SOAData is the RDATA of an SOA record (RFC 1035 §3.3.13).
type SOAData struct {
	MName   Name
	RName   Name
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

func (SOAData) isRData() {}

// String summarizes the SOA fields.
func (d SOAData) String() string {
	return fmt.Sprintf("%s %s %d %d %d %d %d", d.MName, d.RName,
		d.Serial, d.Refresh, d.Retry, d.Expire, d.Minimum)
}

// TXTData is the RDATA of a TXT record: one or more character strings.
type TXTData struct{ Strings []string }

func (TXTData) isRData() {}

// String joins the character strings.
func (d TXTData) String() string {
	out := ""
	for i, s := range d.Strings {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%q", s)
	}
	return out
}

// RawData carries RDATA of types this codec does not decode.
type RawData struct {
	RType Type
	Bytes []byte
}

func (RawData) isRData() {}

// String hex-summarizes the raw data.
func (d RawData) String() string { return fmt.Sprintf("\\# %d %x", len(d.Bytes), d.Bytes) }

// Message is a complete DNS message.
type Message struct {
	Header      Header
	Questions   []Question
	Answers     []Record
	Authorities []Record
	Additionals []Record
}

// flag bit positions within the 16-bit flags word.
const (
	flagQR = 1 << 15
	flagAA = 1 << 10
	flagTC = 1 << 9
	flagRD = 1 << 8
	flagRA = 1 << 7
)

// flags packs h into the header's flags word.
func (h Header) flags() uint16 {
	flags := uint16(h.OpCode&0xF)<<11 | uint16(h.RCode&0xF)
	if h.Response {
		flags |= flagQR
	}
	if h.Authoritative {
		flags |= flagAA
	}
	if h.Truncated {
		flags |= flagTC
	}
	if h.RecursionDesired {
		flags |= flagRD
	}
	if h.RecursionAvailable {
		flags |= flagRA
	}
	return flags
}

// headerFrom unpacks an ID and a flags word.
func headerFrom(id, flags uint16) Header {
	return Header{
		ID:                 id,
		Response:           flags&flagQR != 0,
		OpCode:             OpCode(flags >> 11 & 0xF),
		Authoritative:      flags&flagAA != 0,
		Truncated:          flags&flagTC != 0,
		RecursionDesired:   flags&flagRD != 0,
		RecursionAvailable: flags&flagRA != 0,
		RCode:              RCode(flags & 0xF),
	}
}

// Marshal encodes m into wire format with name compression.
func (m *Message) Marshal() ([]byte, error) {
	return m.AppendTo(make([]byte, 0, 512))
}

// AppendTo encodes m into wire format, reusing buf's storage. Compression
// pointers count from the start of the message, so the message always begins
// at offset 0 of the result: whatever buf held is overwritten.
func (m *Message) AppendTo(buf []byte) ([]byte, error) {
	var b Builder
	buf = b.Begin(buf)
	for _, q := range m.Questions {
		if buf = addQuestion(&b, buf, q.Name, q.Type, q.Class); b.err != nil {
			return nil, fmt.Errorf("question %s: %w", q.Name, b.err)
		}
	}
	for sec := SectionAnswer; sec <= SectionAdditional; sec++ {
		for _, rr := range *m.section(sec) {
			if buf = b.Record(buf, sec, rr); b.err != nil {
				return nil, fmt.Errorf("record %s: %w", rr.Name, b.err)
			}
		}
	}
	return b.Finish(buf, m.Header)
}

// section returns the record list that holds section s of m.
func (m *Message) section(s Section) *[]Record {
	switch s {
	case SectionAnswer:
		return &m.Answers
	case SectionAuthority:
		return &m.Authorities
	default:
		return &m.Additionals
	}
}

// Unmarshal decodes a wire-format message. It is Parse plus materialization,
// done in the same single walk.
func Unmarshal(msg []byte) (*Message, error) {
	var m Message
	if _, err := parse(msg, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// AppendQuery encodes a single-question IN query into buf's storage: the
// bytes NewQuery(id, name, qtype).Marshal() produces, without the Message.
// name is in presentation form, a Name or the bytes AppendReverseName
// wrote. A lone question has nothing before it to compress against, so
// its name is written as it stands, with no compression table.
func AppendQuery[S ~string | ~[]byte](buf []byte, id uint16, name S, qtype Type) ([]byte, error) {
	buf = append(buf[:0], byte(id>>8), byte(id), 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)
	buf, err := appendUncompressedName(buf, name)
	if err != nil {
		return nil, err
	}
	return append(buf, byte(qtype>>8), byte(qtype), byte(ClassIN>>8), byte(ClassIN)), nil
}

// NewQuery builds a single-question query message.
func NewQuery(id uint16, name Name, qtype Type) *Message {
	return &Message{
		Header:    Header{ID: id, RecursionDesired: false},
		Questions: []Question{{Name: name, Type: qtype, Class: ClassIN}},
	}
}

// NewResponse builds a response skeleton echoing the query's ID, question and
// RD bit.
func NewResponse(query *Message, rcode RCode) *Message {
	resp := &Message{
		Header: Header{
			ID:               query.Header.ID,
			Response:         true,
			OpCode:           query.Header.OpCode,
			RecursionDesired: query.Header.RecursionDesired,
			RCode:            rcode,
		},
	}
	resp.Questions = append(resp.Questions, query.Questions...)
	return resp
}
