// Package dnsserver implements an authoritative DNS server for reverse
// (in-addr.arpa) zones with dynamically mutable contents.
//
// This is the substrate on the *network operator's* side of the paper: the
// name server that an IPAM system updates whenever a DHCP lease is granted
// or released (Section 2.1, "Interplay between DHCP and DNS"). The zone
// store supports adding and removing PTR records at runtime; queries for
// names that have no record receive authoritative NXDOMAIN answers carrying
// the zone SOA, exactly the signal the paper's reactive measurement uses to
// detect record removal (Section 6.1).
//
// The server core is transport-independent: HandleQuery maps a request
// message to a response message. Adapters attach it to the simulation
// fabric or to a real net.PacketConn (see Serve), so the same server code
// answers both simulated campaigns and real UDP clients.
package dnsserver

import (
	"errors"
	"fmt"
	"sync"

	"rdnsprivacy/internal/dnswire"
)

// Zone is a mutable authoritative zone. Create one with NewZone. A Zone is
// safe for concurrent use.
type Zone struct {
	origin dnswire.Name
	ns     []dnswire.Record // the apex NS RRset
	ttl    uint32

	mu      sync.RWMutex
	records map[dnswire.Name][]dnswire.Record
	serial  uint32
	soa     dnswire.SOAData
	// soaRR is the SOA as the record replies carry, its data boxed once per
	// change of serial rather than once per negative answer.
	soaRR dnswire.Record
}

// ZoneConfig configures a new zone.
type ZoneConfig struct {
	// Origin is the zone apex, e.g. 2.0.192.in-addr.arpa.
	Origin dnswire.Name
	// PrimaryNS is the SOA MNAME and the single NS record target.
	PrimaryNS dnswire.Name
	// Mbox is the SOA RNAME (hostmaster mailbox in name form).
	Mbox dnswire.Name
	// TTL is the TTL for zone records. Defaults to 300, the short TTL
	// operators use for dynamic records.
	TTL uint32
	// NegativeTTL is the SOA MINIMUM, governing negative caching.
	// Defaults to 60.
	NegativeTTL uint32
}

// NewZone creates an empty zone.
func NewZone(cfg ZoneConfig) *Zone {
	if cfg.TTL == 0 {
		cfg.TTL = 300
	}
	if cfg.NegativeTTL == 0 {
		cfg.NegativeTTL = 60
	}
	z := &Zone{
		origin: cfg.Origin,
		ns: []dnswire.Record{{
			Name: cfg.Origin, Type: dnswire.TypeNS, Class: dnswire.ClassIN,
			TTL: cfg.TTL, Data: dnswire.NSData{Target: cfg.PrimaryNS},
		}},
		ttl:     cfg.TTL,
		records: make(map[dnswire.Name][]dnswire.Record),
		soa: dnswire.SOAData{
			MName:   cfg.PrimaryNS,
			RName:   cfg.Mbox,
			Refresh: 7200,
			Retry:   900,
			Expire:  1209600,
			Minimum: cfg.NegativeTTL,
		},
	}
	z.bumpSerial()
	return z
}

// bumpSerial advances the SOA serial after a change. Callers hold z.mu
// (or own the zone outright, as NewZone does).
func (z *Zone) bumpSerial() {
	z.serial++
	z.soa.Serial = z.serial
	z.soaRR = dnswire.Record{
		Name:  z.origin,
		Type:  dnswire.TypeSOA,
		Class: dnswire.ClassIN,
		TTL:   z.ttl,
		Data:  z.soa,
	}
}

// Origin returns the zone apex.
func (z *Zone) Origin() dnswire.Name { return z.origin }

// Serial returns the current SOA serial, which increments on every change.
func (z *Zone) Serial() uint32 {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.serial
}

// ErrOutOfZone reports an attempt to store a name outside the zone.
var ErrOutOfZone = errors.New("dnsserver: name out of zone")

// SetPTR installs (or replaces) the PTR record at name. It is the operation
// an IPAM system performs when a DHCP lease is granted.
func (z *Zone) SetPTR(name dnswire.Name, target dnswire.Name) error {
	if !name.HasSuffix(z.origin) {
		return fmt.Errorf("%w: %s not under %s", ErrOutOfZone, name, z.origin)
	}
	rr := dnswire.Record{
		Name:  name,
		Type:  dnswire.TypePTR,
		Class: dnswire.ClassIN,
		TTL:   z.ttl,
		Data:  dnswire.PTRData{Target: target},
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	rrs := z.records[name]
	replaced := false
	for i := range rrs {
		if rrs[i].Type == dnswire.TypePTR {
			rrs[i] = rr
			replaced = true
			break
		}
	}
	if !replaced {
		rrs = append(rrs, rr)
	}
	z.records[name] = rrs
	z.bumpSerial()
	return nil
}

// RemovePTR deletes the PTR record at name, reporting whether one existed.
// It is the operation an IPAM system performs when a lease expires or is
// released.
func (z *Zone) RemovePTR(name dnswire.Name) bool {
	z.mu.Lock()
	defer z.mu.Unlock()
	rrs, ok := z.records[name]
	if !ok {
		return false
	}
	kept := rrs[:0]
	removed := false
	for _, rr := range rrs {
		if rr.Type == dnswire.TypePTR {
			removed = true
			continue
		}
		kept = append(kept, rr)
	}
	if !removed {
		return false
	}
	if len(kept) == 0 {
		delete(z.records, name)
	} else {
		z.records[name] = kept
	}
	z.bumpSerial()
	return true
}

// SetA installs (or replaces) an A record at name — the forward-DNS side
// of dynamic updates, which the paper flags as future work ("forward DNS
// data ... can also be dynamically updated by DHCP servers").
func (z *Zone) SetA(name dnswire.Name, addr dnswire.IPv4) error {
	if !name.HasSuffix(z.origin) {
		return fmt.Errorf("%w: %s not under %s", ErrOutOfZone, name, z.origin)
	}
	rr := dnswire.Record{
		Name:  name,
		Type:  dnswire.TypeA,
		Class: dnswire.ClassIN,
		TTL:   z.ttl,
		Data:  dnswire.AData{Addr: addr},
	}
	z.mu.Lock()
	defer z.mu.Unlock()
	rrs := z.records[name]
	replaced := false
	for i := range rrs {
		if rrs[i].Type == dnswire.TypeA {
			rrs[i] = rr
			replaced = true
			break
		}
	}
	if !replaced {
		rrs = append(rrs, rr)
	}
	z.records[name] = rrs
	z.bumpSerial()
	return nil
}

// RemoveA deletes the A record at name, reporting whether one existed.
func (z *Zone) RemoveA(name dnswire.Name) bool {
	z.mu.Lock()
	defer z.mu.Unlock()
	rrs, ok := z.records[name]
	if !ok {
		return false
	}
	kept := rrs[:0]
	removed := false
	for _, rr := range rrs {
		if rr.Type == dnswire.TypeA {
			removed = true
			continue
		}
		kept = append(kept, rr)
	}
	if !removed {
		return false
	}
	if len(kept) == 0 {
		delete(z.records, name)
	} else {
		z.records[name] = kept
	}
	z.bumpSerial()
	return true
}

// LookupA returns the A record address at name, if any.
func (z *Zone) LookupA(name dnswire.Name) (dnswire.IPv4, bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	for _, rr := range z.records[name] {
		if rr.Type == dnswire.TypeA {
			return dnswire.IPv4(rr.Data.(dnswire.AData).Addr), true
		}
	}
	return dnswire.IPv4{}, false
}

// LookupPTR returns the PTR target at name, if any.
func (z *Zone) LookupPTR(name dnswire.Name) (dnswire.Name, bool) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	for _, rr := range z.records[name] {
		if rr.Type == dnswire.TypePTR {
			return rr.Data.(dnswire.PTRData).Target, true
		}
	}
	return "", false
}

// Len returns the number of names with records in the zone.
func (z *Zone) Len() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return len(z.records)
}

// Names returns all names holding records, in no particular order.
func (z *Zone) Names() []dnswire.Name {
	z.mu.RLock()
	defer z.mu.RUnlock()
	out := make([]dnswire.Name, 0, len(z.records))
	for n := range z.records {
		out = append(out, n)
	}
	return out
}

// soaRecord returns the zone's SOA as a record.
func (z *Zone) soaRecord() dnswire.Record {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.soaRR
}

// answer resolves a question within the zone, appending the answer and
// authority records straight to the reply b is building in buf, and returns
// the grown reply with the response code. name is the question name in
// canonical presentation form; it is only read. It must be called with at
// least a read lock NOT held (it takes its own, and holds it while it
// writes: SetPTR replaces records in place).
func (z *Zone) answer(b *dnswire.Builder, buf, name []byte, qtype dnswire.Type) ([]byte, dnswire.RCode) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	if string(name) == string(z.origin) {
		switch qtype {
		case dnswire.TypeSOA, dnswire.TypeANY:
			buf = b.Record(buf, dnswire.SectionAnswer, z.soaRR)
		case dnswire.TypeNS:
			for _, rr := range z.ns {
				buf = b.Record(buf, dnswire.SectionAnswer, rr)
			}
		default:
			buf = b.Record(buf, dnswire.SectionAuthority, z.soaRR)
		}
		return buf, dnswire.RCodeNoError
	}
	rrs, ok := z.records[dnswire.Name(name)]
	if !ok {
		return b.Record(buf, dnswire.SectionAuthority, z.soaRR), dnswire.RCodeNXDomain
	}
	matched := false
	for _, rr := range rrs {
		if qtype == dnswire.TypeANY || rr.Type == qtype {
			buf = b.Record(buf, dnswire.SectionAnswer, rr)
			matched = true
		}
	}
	if !matched {
		// Name exists but not with this type: NODATA.
		buf = b.Record(buf, dnswire.SectionAuthority, z.soaRR)
	}
	return buf, dnswire.RCodeNoError
}
