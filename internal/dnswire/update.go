package dnswire

import "errors"

// This file implements the DNS UPDATE message format of RFC 2136, the
// protocol real DHCP servers and IPAM systems use to install and remove
// records on authoritative name servers. In an UPDATE message the four
// sections of a normal DNS message are reinterpreted:
//
//	Question   -> Zone        (one entry naming the zone, type SOA)
//	Answer     -> Prerequisite
//	Authority  -> Update      (the records to add or delete)
//	Additional -> Additional
//
// Deletions are encoded by class: CLASS NONE deletes a specific RR,
// CLASS ANY with empty RDATA deletes an RRset (or, with TYPE ANY, every
// record at the name).

// ClassNONE is the RFC 2136 "delete an RR from an RRset" class.
const ClassNONE Class = 254

// ErrNotUpdate reports that a message is not an UPDATE.
var ErrNotUpdate = errors.New("dnswire: not an UPDATE message")

// NewUpdate builds an empty UPDATE message for a zone.
func NewUpdate(id uint16, zone Name) *Message {
	return &Message{
		Header: Header{ID: id, OpCode: OpUpdate},
		Questions: []Question{{
			Name: zone, Type: TypeSOA, Class: ClassIN,
		}},
	}
}

// UpdateZone returns the zone an UPDATE message addresses.
func (m *Message) UpdateZone() (Name, error) {
	if m.Header.OpCode != OpUpdate {
		return "", ErrNotUpdate
	}
	if len(m.Questions) != 1 || m.Questions[0].Type != TypeSOA {
		return "", errors.New("dnswire: malformed UPDATE zone section")
	}
	return m.Questions[0].Name, nil
}

// AddRR appends an add-this-record operation to the update section.
func (m *Message) AddRR(rr Record) {
	m.Authorities = append(m.Authorities, rr)
}

// DeleteRRset appends a delete-all-records-of-this-type operation: class
// ANY, TTL 0, empty RDATA (RFC 2136 §2.5.2).
func (m *Message) DeleteRRset(name Name, t Type) {
	m.Authorities = append(m.Authorities, Record{
		Name:  name,
		Type:  t,
		Class: ClassANY,
		TTL:   0,
		Data:  RawData{RType: t},
	})
}
