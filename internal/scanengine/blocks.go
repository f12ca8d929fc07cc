package scanengine

import (
	"slices"

	"rdnsprivacy/internal/dnswire"
)

// Entry is one record of a Block: the address's last octet and its PTR
// target.
type Entry struct {
	Octet byte
	Name  dnswire.Name
}

// Block is the record set of one /24 in packed form: its entries sorted by
// last octet, no octet twice. It is the shape the history store keeps a
// block in (rbldnsd's ip4tset), so a snapshot handed over as Blocks reaches
// the store without being re-bucketed or re-sorted.
type Block struct {
	Prefix  dnswire.Prefix
	Entries []Entry
}

// Blocks is a snapshot in packed form: its non-empty /24s in address
// order. The sweep produces it once; the store, the campaign fold and the
// diff all read it.
type Blocks []Block

// Len counts the records.
func (bs Blocks) Len() int {
	n := 0
	for _, b := range bs {
		n += len(b.Entries)
	}
	return n
}

// Records expands the blocks into the map form.
func (bs Blocks) Records() RecordSet {
	out := make(RecordSet, bs.Len())
	for _, b := range bs {
		ip := b.Prefix.Addr
		for _, e := range b.Entries {
			ip[3] = e.Octet
			out[ip] = e.Name
		}
	}
	return out
}

// Pack converts a record set to packed form in O(n): the records are
// radix-sorted by address, a counting pass per address byte, and cut into
// blocks. No comparison sort runs over the set.
func Pack(recs RecordSet) Blocks {
	rs := make([]packed, 0, len(recs))
	for ip, name := range recs {
		rs = append(rs, packed{ip: ip.Uint32(), name: name})
	}
	return packRecords(rs, make([]packed, len(rs)))
}

// packed is one record on its way into a Block.
type packed struct {
	ip   uint32
	name dnswire.Name
}

// packRecords sorts rs by address and cuts it into blocks, every block's
// entries carved from one array. The sort is a stable LSD radix sort that
// skips a byte every record shares, so of records given twice the later
// one wins, as it would in a map. tmp is scratch of at least len(rs); the
// result shares memory with neither.
func packRecords(rs, tmp []packed) Blocks {
	if len(rs) == 0 {
		return nil
	}
	rs = radixSort(rs, tmp[:len(rs)])
	// One pass counts the distinct addresses and /24s, the next carves.
	entries, blocks := 0, 0
	for i, r := range rs {
		if i+1 < len(rs) && rs[i+1].ip == r.ip {
			continue
		}
		entries++
		if i == 0 || rs[i-1].ip>>8 != r.ip>>8 {
			blocks++
		}
	}
	arena := make([]Entry, 0, entries)
	out := make(Blocks, 0, blocks)
	start := 0 // arena index of the current block's first entry
	for i, r := range rs {
		if i+1 < len(rs) && rs[i+1].ip == r.ip {
			continue // a later duplicate wins
		}
		if len(out) == 0 || out[len(out)-1].Prefix.Addr.Uint32()>>8 != r.ip>>8 {
			out = append(out, Block{Prefix: dnswire.IPv4FromUint32(r.ip).Slash24()})
			start = len(arena)
		}
		arena = append(arena, Entry{Octet: byte(r.ip), Name: r.name})
		out[len(out)-1].Entries = arena[start:len(arena):len(arena)]
	}
	return out
}

// radixSort sorts rs by address, stably, using tmp as the second buffer,
// and returns whichever of the two holds the result.
func radixSort(rs, tmp []packed) []packed {
	for shift := 0; shift < 32; shift += 8 {
		var count [256]int
		for _, r := range rs {
			count[byte(r.ip>>shift)]++
		}
		if count[byte(rs[0].ip>>shift)] == len(rs) {
			continue // every record shares this byte
		}
		pos := 0
		for i, c := range count {
			count[i] = pos
			pos += c
		}
		for _, r := range rs {
			k := byte(r.ip >> shift)
			tmp[count[k]] = r
			count[k]++
		}
		rs, tmp = tmp, rs
	}
	return rs
}

// joinPieces sorts blocks by address and unions the pieces of a /24 that
// arrived split across sub-/24 shards, in place: the one sort of a sweep
// runs over its blocks, never over its records. Of an octet two pieces
// both hold, the later-arriving piece wins.
func joinPieces(bs Blocks) Blocks {
	slices.SortStableFunc(bs, func(a, b Block) int {
		return int(int64(a.Prefix.Addr.Uint32()) - int64(b.Prefix.Addr.Uint32()))
	})
	out := bs[:0]
	for _, b := range bs {
		if n := len(out); n > 0 && out[n-1].Prefix == b.Prefix {
			out[n-1].Entries = unionEntries(out[n-1].Entries, b.Entries)
			continue
		}
		out = append(out, b)
	}
	return out
}

// unionEntries merges two octet-sorted entry lists into a new one; on an
// octet both hold, b's entry wins.
func unionEntries(a, b []Entry) []Entry {
	out := make([]Entry, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i].Octet < b[j].Octet):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j].Octet < a[i].Octet:
			out = append(out, b[j])
			j++
		default:
			out = append(out, b[j])
			i++
			j++
		}
	}
	return out
}
