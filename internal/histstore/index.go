package histstore

import (
	"encoding/binary"
	"math"
	"sort"
	"strings"
	"time"

	"rdnsprivacy/internal/dnswire"
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
// log through the identical transition code, so the rebuilt index is
// bit-identical to the one the writer held.

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
}

// nameIndex is the full inverted index. Not safe for concurrent use; the
// Store's lock covers it.
type nameIndex struct {
	tokens  map[string]map[dnswire.Prefix]*tokenPostings
	scratch []string // add's and remove's token buffer
}

func newNameIndex() *nameIndex {
	return &nameIndex{tokens: make(map[string]map[dnswire.Prefix]*tokenPostings)}
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

func (ix *nameIndex) get(token string, p dnswire.Prefix) *tokenPostings {
	byPrefix, ok := ix.tokens[token]
	if !ok {
		byPrefix = make(map[dnswire.Prefix]*tokenPostings)
		ix.tokens[token] = byPrefix
	}
	tp, ok := byPrefix[p]
	if !ok {
		tp = &tokenPostings{newest: interval{first: -1}, open: -1}
		byPrefix[p] = tp
	}
	return tp
}

// add records that a hostname carrying the tokens appeared in p at snap.
func (ix *nameIndex) add(name dnswire.Name, p dnswire.Prefix, snap int) {
	ix.scratch = appendTokens(ix.scratch[:0], name)
	for _, token := range ix.scratch {
		tp := ix.get(token, p)
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

// remove records that a hostname carrying the tokens vanished from p at
// snap (it was last present on snap-1).
func (ix *nameIndex) remove(name dnswire.Name, p dnswire.Prefix, snap int) {
	ix.scratch = appendTokens(ix.scratch[:0], name)
	for _, token := range ix.scratch {
		tp := ix.get(token, p)
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

// closed appends the closed intervals, oldest first, to dst.
func (tp *tokenPostings) closed(dst []interval) []interval {
	var last int32
	for b := tp.packed; len(b) > 0; {
		gap, n := binary.Uvarint(b)
		length, m := binary.Uvarint(b[n:])
		b = b[n+m:]
		first := last + int32(uint32(gap))
		last = first + int32(uint32(length))
		dst = append(dst, interval{first: first, last: last})
	}
	if tp.newest.first >= 0 {
		dst = append(dst, tp.newest)
	}
	return dst
}

// find returns the postings of a token, sorted by prefix address then
// interval start. lastSnap closes any open interval at the store's
// newest snapshot; times translates snapshot indices to instants.
func (ix *nameIndex) find(token string, lastSnap int, times []time.Time) []Posting {
	byPrefix, ok := ix.tokens[strings.ToLower(token)]
	if !ok {
		return nil
	}
	prefixes := make([]dnswire.Prefix, 0, len(byPrefix))
	for p := range byPrefix {
		prefixes = append(prefixes, p)
	}
	sort.Slice(prefixes, func(i, j int) bool {
		return prefixes[i].Addr.Uint32() < prefixes[j].Addr.Uint32()
	})
	var out []Posting
	var closed []interval
	for _, p := range prefixes {
		tp := byPrefix[p]
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
