package histstore

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/scanengine"
)

// The inverted given-name index: hostname tokens map to (/24, snapshot
// interval) postings, so "find every Brians-iPhone ever seen" walks a map
// instead of replaying the log. Tokens come from the hostname's first
// label (the device-name label the Section 5 analysis matches against),
// split on '-'; a token with a trailing possessive "s" is additionally
// indexed under its stem, so FindName("brian") reaches "brians-iphone".
//
// Postings are maintained incrementally from the same add/remove/change
// transitions that feed the log: a token's interval opens the first
// snapshot a record carrying it appears in a /24 and closes the snapshot
// before the last such record vanishes. Reopening a store replays the
// log through the identical transition code — or, for a single writer's
// sealed segments, joins the per-segment sidecars that code produced
// (sidecar.go) — so the rebuilt index is bit-identical to the one the
// writer held.

// Posting is one FindName result: the token was present in Prefix on
// every snapshot from First through Last inclusive.
type Posting struct {
	Prefix dnswire.Prefix
	First  time.Time
	Last   time.Time
}

// maxSnapshots bounds the merged timeline so a snapshot index fits the 32
// bits a posting keeps of it. Closed postings are most of what a long
// campaign's store holds in memory, and the timeline itself (resident, 24
// bytes a snapshot) runs out of memory long before it runs out of indexes.
const maxSnapshots = math.MaxInt32

// interval is a closed snapshot-index range.
type interval struct {
	first, last int32
}

// tokenPostings tracks one (token, /24) pair. Closed intervals are most of
// what a long campaign's store holds in memory, so all but the newest are
// packed: a uvarint stream of (first − previous last, last − first) pairs,
// oldest first, where the first pair's "previous last" is 0. That is two
// bytes per interval for gaps and lengths under 128 snapshots, against
// eight unpacked. The newest closed interval stays unpacked because add
// may reopen it (a seamless re-appearance).
type tokenPostings struct {
	packed     []byte
	packedLast int32    // last of the newest packed interval, 0 while none
	newest     interval // newest closed interval; first < 0 when none
	open       int32    // first snapshot of the open interval, -1 when none
	active     int32    // records in the /24 currently carrying the token
	// sealOff is where, in packed, the intervals that can reach past the
	// last seal begin, and sealLast the last of the interval before them:
	// the sealing pass decodes from there, not from the start. listed
	// marks the posting as on its index's touched list.
	sealOff, sealLast int32
	listed            bool
}

// nameIndex is the full inverted index. Not safe for concurrent use; the
// Store's lock covers it.
//
// Postings are keyed by /24 first: a frame's changes all fall in one /24,
// so apply finds its block once and then probes one small map per token,
// where keying by token first costs every token a probe into the whole
// vocabulary and another into the token's /24s. FindName goes the other
// way through each token's list of /24s.
type nameIndex struct {
	// blocks maps a /24's address to the postings of every token ever
	// seen in it.
	blocks map[uint32]map[string]*tokenPostings
	// addrs lists, per token, the /24s it has postings in, each once, in
	// the order the postings were made.
	addrs   map[string]*tokenAddrs
	scratch []string // add's and remove's token buffer
	// With track set, touched lists every posting a segment sealed now
	// could reach: each one changed since the last seal, and each one open
	// at it. A single-writer store tracks them to write its sidecars
	// (sidecar.go) in O(segment).
	track   bool
	touched []touchedPosting
}

// tokenAddrs is a token's entry in addrs. token is the index's one copy
// of the token, and keys its postings in every /24.
type tokenAddrs struct {
	token string
	addrs []uint32
}

// touchedPosting is one entry of the touched list: the posting of token,
// whose tokenKey is key, in the /24 at addr.
type touchedPosting struct {
	key   uint64
	token string
	addr  uint32
	tp    *tokenPostings
}

func newNameIndex() *nameIndex {
	return &nameIndex{blocks: make(map[uint32]map[string]*tokenPostings), addrs: make(map[string]*tokenAddrs)}
}

// appendTokens appends the index tokens of a hostname to dst: the first
// label's '-'-separated tokens, plus the stem of any token with a
// possessive trailing "s". Names are already lowercase (dnswire.ParseName
// normalizes). Tokens are substrings of name, so with a reused dst it
// allocates nothing: Append indexes every changed record of every block.
func appendTokens(dst []string, name dnswire.Name) []string {
	if name.IsRoot() {
		return dst
	}
	label := string(name)
	if i := strings.IndexByte(label, '.'); i >= 0 {
		label = label[:i]
	}
	for label != "" {
		t := label
		if i := strings.IndexByte(label, '-'); i >= 0 {
			t, label = label[:i], label[i+1:]
		} else {
			label = ""
		}
		if t == "" {
			continue
		}
		dst = append(dst, t)
		if len(t) > 2 && strings.HasSuffix(t, "s") {
			dst = append(dst, t[:len(t)-1])
		}
	}
	return dst
}

// get returns the posting of token in block, the postings of the /24 at
// addr, making it if there is none.
func (ix *nameIndex) get(block map[string]*tokenPostings, token string, addr uint32) *tokenPostings {
	tp := block[token]
	if tp == nil {
		ta := ix.addrs[token]
		if ta == nil {
			ta = &tokenAddrs{token: strings.Clone(token)}
			ix.addrs[ta.token] = ta
		}
		ta.addrs = append(ta.addrs, addr)
		tp = &tokenPostings{newest: interval{first: -1}, open: -1}
		block[ta.token] = tp
	}
	if ix.track && !tp.listed {
		ix.list(token, addr, tp)
	}
	return tp
}

// list puts the posting of token in the /24 at addr on the touched list.
func (ix *nameIndex) list(token string, addr uint32, tp *tokenPostings) {
	tp.listed = true
	ix.touched = append(ix.touched, touchedPosting{key: tokenKey(token), token: token, addr: addr, tp: tp})
}

// block returns the postings of the /24 at addr, making the map if the
// /24 has none yet.
func (ix *nameIndex) block(addr uint32) map[string]*tokenPostings {
	block := ix.blocks[addr]
	if block == nil {
		block = make(map[string]*tokenPostings)
		ix.blocks[addr] = block
	}
	return block
}

// apply feeds one frame's changes — block p at snapshot snap — to the
// index: the one place record transitions become postings.
func (ix *nameIndex) apply(changes []deltaEntry, p dnswire.Prefix, snap int) {
	if len(changes) == 0 {
		return
	}
	addr := p.Addr.Uint32()
	block := ix.block(addr)
	for _, ch := range changes {
		switch ch.kind {
		case scanengine.RecordAdded:
			ix.add(block, addr, ch.new, snap)
		case scanengine.RecordRemoved:
			ix.remove(block, addr, ch.old, snap)
		case scanengine.RecordChanged:
			ix.remove(block, addr, ch.old, snap)
			ix.add(block, addr, ch.new, snap)
		}
	}
}

// add records that a hostname carrying the tokens appeared at snap in the
// /24 at addr, whose postings are block.
func (ix *nameIndex) add(block map[string]*tokenPostings, addr uint32, name dnswire.Name, snap int) {
	ix.scratch = appendTokens(ix.scratch[:0], name)
	for _, token := range ix.scratch {
		tp := ix.get(block, token, addr)
		tp.active++
		if tp.active == 1 && tp.open < 0 {
			// Seamless re-appearance: a record removed at snap (present
			// through snap-1) and re-added at snap keeps one interval.
			if tp.newest.first >= 0 && int(tp.newest.last) == snap-1 {
				tp.open = tp.newest.first
				tp.newest.first = -1
			} else {
				tp.open = int32(snap)
			}
		}
	}
}

// remove records that a hostname carrying the tokens vanished at snap
// (it was last present on snap-1) from the /24 at addr, whose postings
// are block.
func (ix *nameIndex) remove(block map[string]*tokenPostings, addr uint32, name dnswire.Name, snap int) {
	ix.scratch = appendTokens(ix.scratch[:0], name)
	for _, token := range ix.scratch {
		tp := ix.get(block, token, addr)
		tp.active--
		if tp.active == 0 && tp.open >= 0 {
			tp.close(interval{first: tp.open, last: int32(snap - 1)})
			tp.open = -1
		}
	}
}

// close makes iv the newest closed interval, packing the one it succeeds.
func (tp *tokenPostings) close(iv interval) {
	if prev := tp.newest; prev.first >= 0 {
		tp.packed = binary.AppendUvarint(tp.packed, uint64(uint32(prev.first-tp.packedLast)))
		tp.packed = binary.AppendUvarint(tp.packed, uint64(uint32(prev.last-prev.first)))
		tp.packedLast = prev.last
	}
	tp.newest = iv
}

// packedAt decodes the packed interval at packed[off:], whose predecessor
// ended at prev, and returns it with the offset after it.
func (tp *tokenPostings) packedAt(off int, prev int32) (interval, int) {
	gap, n := binary.Uvarint(tp.packed[off:])
	length, m := binary.Uvarint(tp.packed[off+n:])
	first := prev + int32(uint32(gap))
	return interval{first: first, last: first + int32(uint32(length))}, off + n + m
}

// closed appends the closed intervals, oldest first, to dst.
func (tp *tokenPostings) closed(dst []interval) []interval {
	var last int32
	for off := 0; off < len(tp.packed); {
		var iv interval
		iv, off = tp.packedAt(off, last)
		last = iv.last
		dst = append(dst, iv)
	}
	if tp.newest.first >= 0 {
		dst = append(dst, tp.newest)
	}
	return dst
}

// clip appends to dst the intervals overlapping [first, last], cut to it;
// the open one runs through last, the store's newest snapshot. Only the
// intervals past sealOff are decoded: first lies past the last seal.
func (tp *tokenPostings) clip(dst []interval, first, last int32) []interval {
	prev := tp.sealLast
	for off := int(tp.sealOff); off < len(tp.packed); {
		var iv interval
		iv, off = tp.packedAt(off, prev)
		prev = iv.last
		dst = iv.clipTo(dst, first, last)
	}
	if tp.newest.first >= 0 {
		dst = tp.newest.clipTo(dst, first, last)
	}
	if tp.open >= 0 {
		dst = interval{first: tp.open, last: last}.clipTo(dst, first, last)
	}
	return dst
}

// clipTo appends to dst what of iv lies inside [first, last], if any.
func (iv interval) clipTo(dst []interval, first, last int32) []interval {
	if iv.last < first || iv.first > last {
		return dst
	}
	return append(dst, interval{first: max(iv.first, first), last: min(iv.last, last)})
}

// sealed records that the snapshots through cut are sealed: each touched
// posting skips the packed intervals that end by cut, and stays listed
// only while it can still reach past it — open, or closed after it.
func (ix *nameIndex) sealed(cut int) {
	c := int32(cut)
	kept := ix.touched[:0]
	for _, t := range ix.touched {
		tp := t.tp
		if tp.packedLast <= c { // as usual: every packed interval ends by cut
			tp.sealOff, tp.sealLast = int32(len(tp.packed)), tp.packedLast
		}
		for off := int(tp.sealOff); off < len(tp.packed); {
			iv, next := tp.packedAt(off, tp.sealLast)
			if iv.last > c {
				break
			}
			tp.sealOff, tp.sealLast, off = int32(next), iv.last, next
		}
		if tp.open >= 0 || (tp.newest.first >= 0 && tp.newest.last > c) {
			kept = append(kept, t)
		} else {
			tp.listed = false
		}
	}
	clear(ix.touched[len(kept):])
	ix.touched = kept
}

// find returns the postings of a token, sorted by prefix address then
// interval start. lastSnap closes any open interval at the store's
// newest snapshot; times translates snapshot indices to instants.
func (ix *nameIndex) find(token string, lastSnap int, times []time.Time) []Posting {
	ta := ix.addrs[strings.ToLower(token)]
	if ta == nil {
		return nil
	}
	addrs := slices.Clone(ta.addrs)
	slices.Sort(addrs)
	var out []Posting
	var closed []interval
	for _, a := range addrs {
		tp := ix.blocks[a][ta.token]
		p := dnswire.Prefix{Addr: dnswire.IPv4FromUint32(a), Bits: 24}
		closed = tp.closed(closed[:0])
		for _, iv := range closed {
			out = append(out, Posting{Prefix: p, First: times[iv.first], Last: times[iv.last]})
		}
		if tp.open >= 0 {
			out = append(out, Posting{Prefix: p, First: times[tp.open], Last: times[lastSnap]})
		}
	}
	return out
}
