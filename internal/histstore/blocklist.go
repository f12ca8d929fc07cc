package histstore

import (
	"slices"
	"sort"

	"rdnsprivacy/internal/dnswire"
)

// blockList is a set of /24s kept sorted by address as blocks are
// materialized, so listing it costs a copy and finding the blocks under a
// prefix costs two binary searches.
type blockList []dnswire.Prefix

// search finds the position of the first block at or above addr.
func (l blockList) search(addr uint32) int {
	return sort.Search(len(l), func(i int) bool { return l[i].Addr.Uint32() >= addr })
}

// has reports whether p is in the list.
func (l blockList) has(p dnswire.Prefix) bool {
	i := l.search(p.Addr.Uint32())
	return i < len(l) && l[i] == p
}

// add inserts p unless it is already there.
func (l *blockList) add(p dnswire.Prefix) {
	i := l.search(p.Addr.Uint32())
	if i < len(*l) && (*l)[i] == p {
		return
	}
	*l = slices.Insert(*l, i, p)
}

// overlapping returns the listed /24s that overlap p, in address order —
// a sub-slice of the list for any properly masked prefix.
func (l blockList) overlapping(p dnswire.Prefix) blockList {
	host := ^uint32(0) // p's host bits
	if p.Bits > 0 {
		host = uint32(uint64(1)<<(32-p.Bits) - 1)
	}
	addr := p.Addr.Uint32()
	// Every overlapping /24 lies between the /24 holding p's masked
	// address and p's last address.
	last := addr | host
	span := l[l.search(addr&^host&^0xff):]
	span = span[:sort.Search(len(span), func(i int) bool { return span[i].Addr.Uint32() > last })]
	if addr&host == 0 {
		return span
	}
	// An address with host bits set contains nothing; Overlaps then holds
	// only for the /24 around the address itself.
	var out blockList
	for _, q := range span {
		if p.Overlaps(q) {
			out = append(out, q)
		}
	}
	return out
}
