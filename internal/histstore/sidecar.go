package histstore

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"slices"
	"strings"

	"rdnsprivacy/internal/dnswire"
)

// A sidecar is a sealed segment's share of the given-name index: the
// (token, /24) postings of the store clipped to the segment's
// snapshot span [first, first+count-1]. It lets Open join the sealed
// history's index segment by segment instead of re-deriving it change by
// change (tail.go, adoptSealed). It is named after its segment —
// seg-main-13.seg carries seg-main-13.names — and is not in the manifest:
// it is bound to its segment by carrying the segment's identity, and any
// sidecar that is missing, torn, or names another segment is rebuilt from
// the segment by foldSegment, its oracle.
//
// Layout (integers uvarint unless noted):
//
//	magic    8 bytes "RDNSNAM1"
//	writer   string (uvarint length + bytes)
//	first    the segment's first snapshot
//	count    its snapshot count
//	size     its file size
//	segcrc   4 bytes LE: its trailer's footer CRC
//	ntokens
//	nposts   postings in all
//	nruns    runs in all
//	lengths  ntokens token lengths (1..255)
//	tokens   the token bytes concatenated, no token twice, in tokenKey
//	         order (their FNV-1a hash, then their bytes)
//	per token:
//	  nposts  postings (>= 1)
//	  per posting, ascending /24:
//	    block  first: the /24's address >> 8; later: gap from the previous (>= 1)
//	    nruns  runs (>= 1)
//	    per run, oldest first:
//	      gap  first run: from the segment's first snapshot; later: from
//	           the previous run's last (>= 2 — runs are maximal, so two
//	           never touch)
//	      len  last - first
//	crc      4 bytes LE (IEEE CRC32 over everything before)
//
// A run touching the segment's last snapshot is a posting still open
// there; one touching its first may continue the segment before's.
// Joining such runs across the boundary reproduces the live index's
// postings exactly, down to the packed bytes.

var sidecarMagic = [8]byte{'R', 'D', 'N', 'S', 'N', 'A', 'M', '1'}

// SidecarSuffix ends the name of every segment sidecar; a manifest never
// references a file carrying it (ValidStoreFileName).
const SidecarSuffix = ".names"

// SidecarName is the name of the sidecar of the segment named seg — a
// path for a path.
func SidecarName(seg string) string { return strings.TrimSuffix(seg, ".seg") + SidecarSuffix }

// segIdentity is what binds a sidecar to its segment: the manifest's
// identity of the segment plus its size and footer CRC.
type segIdentity struct {
	writer       string
	first, count int
	size         int64
	crc          uint32
}

// identity is g's identity.
func (g *segment) identity() segIdentity {
	return segIdentity{writer: g.writerID, first: g.firstSnap, count: g.count, size: g.size, crc: g.idx.crc}
}

// segNames is one segment's clipped postings: tokens in tokenKey order,
// postings token-major and ascending by /24 within a token, and the
// postings' runs in one slice.
type segNames struct {
	tokens []string
	keys   []uint64 // the tokens' tokenKeys
	posts  []segPosting
	runs   []interval
}

// segPosting is one (token, /24) posting; its runs are runs[lo:hi].
type segPosting struct {
	token  int32 // index into tokens
	addr   uint32
	lo, hi int32
}

// namePosting is a posting on its way into a segNames: its runs are
// runs[lo:hi] of the slice gathered alongside, and key its token's
// tokenKey.
type namePosting struct {
	key    uint64
	token  string
	addr   uint32
	lo, hi int32
}

// tokenKey is the FNV-1a hash of a token. A sidecar orders its tokens by
// it, then by their bytes: a canonical order that sorting thousands of
// postings at every seal establishes with integer compares.
func tokenKey(token string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(token); i++ {
		h ^= uint64(token[i])
		h *= 1099511628211
	}
	return h
}

// tokenOrder is the sidecar's token order.
func tokenOrder(ka uint64, a string, kb uint64, b string) int {
	if ka != kb {
		return cmp.Compare(ka, kb)
	}
	return strings.Compare(a, b)
}

// newSegNames orders gathered postings into a segNames over runs: by
// token, in tokenKey order, then by /24. A seal orders thousands of
// postings, so the keys do the work: a counting pass buckets the postings
// by their keys' top bits — tokenKey is a hash, so a bucket holds about
// one token — and only each bucket is sorted, by key and /24; tokens that
// share a key are then put in order by their bytes.
func newSegNames(posts []namePosting, runs []interval) *segNames {
	type slot struct{ key, at uint64 } // at: the /24, then the index in posts
	const bits = 12
	var starts [1 << bits]int32 // a bucket's end, then once filled its start
	for _, np := range posts {
		starts[np.key>>(64-bits)]++
	}
	for b := 1; b < len(starts); b++ {
		starts[b] += starts[b-1]
	}
	order := make([]slot, len(posts))
	for i, np := range posts {
		b := np.key >> (64 - bits)
		starts[b]--
		order[starts[b]] = slot{key: np.key, at: uint64(np.addr)<<32 | uint64(i)}
	}
	for b, start := range starts {
		end := int32(len(order))
		if b+1 < len(starts) {
			end = starts[b+1]
		}
		if end-start > 1 {
			slices.SortFunc(order[start:end], func(x, y slot) int {
				if x.key != y.key {
					return cmp.Compare(x.key, y.key)
				}
				return cmp.Compare(x.at, y.at)
			})
		}
	}
	token := func(o slot) string { return posts[uint32(o.at)].token }
	collided := false
	for i := 0; i < len(order); {
		j, mixed := i+1, false
		for ; j < len(order) && order[j].key == order[i].key; j++ {
			mixed = mixed || token(order[j]) != token(order[i])
		}
		if mixed { // tokens whose keys collide
			slices.SortStableFunc(order[i:j], func(x, y slot) int { return strings.Compare(token(x), token(y)) })
			collided = true
		}
		i = j
	}
	sn := &segNames{posts: make([]segPosting, len(posts)), runs: runs}
	for i, o := range order {
		np := posts[uint32(o.at)]
		if i == 0 || np.key != sn.keys[len(sn.keys)-1] || (collided && np.token != sn.tokens[len(sn.tokens)-1]) {
			sn.tokens, sn.keys = append(sn.tokens, np.token), append(sn.keys, np.key)
		}
		sn.posts[i] = segPosting{token: int32(len(sn.tokens) - 1), addr: np.addr, lo: np.lo, hi: np.hi}
	}
	return sn
}

// sealSpan returns the tracked postings clipped to [first, last] — the
// sidecar of a segment sealing that span. The index must stand at last
// and track its touched postings since first: then nothing else can
// reach the span, and the cost is the touched postings' runs since the
// last seal, however long the store.
func (ix *nameIndex) sealSpan(first, last int) *segNames {
	// Most touched postings have one run in the span.
	posts := make([]namePosting, 0, len(ix.touched))
	runs := make([]interval, 0, len(ix.touched))
	for _, t := range ix.touched {
		lo := len(runs)
		if runs = t.tp.clip(runs, int32(first), int32(last)); len(runs) > lo {
			posts = append(posts, namePosting{key: t.key, token: t.token, addr: t.addr, lo: int32(lo), hi: int32(len(runs))})
		}
	}
	return newSegNames(posts, runs)
}

// foldSegment is the sidecar's oracle and its fallback: it decodes the
// segment's frames from its opening bases, strictly, and folds them
// through a fresh name index with the code a live store runs, returning
// the postings of the segment's span.
func foldSegment(seq *sequencer, first, count int) (*segNames, error) {
	ix := newNameIndex()
	cur := make(map[dnswire.Prefix]blockState)
	var changes []deltaEntry
	err := seq.each(func(fr seqFrame) error {
		if fr.ref.kind == frameSnap {
			return nil
		}
		var fe frameEffect
		var err error
		if changes, err = fe.decode(fr, cur, changes[:0]); err != nil {
			return err
		}
		setState(cur, fe.p, fe.state)
		if fe.ref.kind == frameBase {
			ix.reserve(fe.p.Addr.Uint32(), fe.state)
		}
		ix.apply(fe.changes, fe.p, fr.ref.snap)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return ix.sealSpan(first, first+count-1), nil
}

// encode serializes sn as the sidecar of the segment id names.
func (sn *segNames) encode(id segIdentity) []byte {
	// Room for the usual: short tokens, one-byte gaps and lengths.
	out := make([]byte, 0, 64+len(id.writer)+8*len(sn.tokens)+4*len(sn.posts)+2*len(sn.runs))
	out = append(out, sidecarMagic[:]...)
	out = appendString(out, id.writer)
	out = binary.AppendUvarint(out, uint64(id.first))
	out = binary.AppendUvarint(out, uint64(id.count))
	out = binary.AppendUvarint(out, uint64(id.size))
	out = binary.LittleEndian.AppendUint32(out, id.crc)
	out = binary.AppendUvarint(out, uint64(len(sn.tokens)))
	out = binary.AppendUvarint(out, uint64(len(sn.posts)))
	out = binary.AppendUvarint(out, uint64(len(sn.runs)))
	for _, t := range sn.tokens {
		out = binary.AppendUvarint(out, uint64(len(t)))
	}
	for _, t := range sn.tokens {
		out = append(out, t...)
	}
	for i := 0; i < len(sn.posts); {
		tok := sn.posts[i].token
		j := i
		for j < len(sn.posts) && sn.posts[j].token == tok {
			j++
		}
		out = binary.AppendUvarint(out, uint64(j-i))
		prevBlock := uint32(0)
		for _, ps := range sn.posts[i:j] {
			block := ps.addr >> 8
			out = binary.AppendUvarint(out, uint64(block-prevBlock))
			prevBlock = block
			runs := sn.runs[ps.lo:ps.hi]
			out = binary.AppendUvarint(out, uint64(len(runs)))
			prev := int32(id.first)
			for _, r := range runs {
				out = binary.AppendUvarint(out, uint64(r.first-prev))
				out = binary.AppendUvarint(out, uint64(r.last-r.first))
				prev = r.last
			}
		}
		i = j
	}
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// decodeSidecar parses a sidecar's bytes, refusing — as corruption — any
// that are damaged, malformed, or not the sidecar of the segment want
// names. Every field is checked before anything is built from it: tokens
// bounded and in tokenKey order, postings ascending, runs inside the
// segment's span, ascending and never touching.
func decodeSidecar(data []byte, want segIdentity) (*segNames, error) {
	if len(data) < len(sidecarMagic)+4 || [8]byte(data[:8]) != sidecarMagic {
		return nil, corruptError("not a given-name sidecar (bad magic)")
	}
	body := data[:len(data)-4]
	if got, stored := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(data[len(body):]); got != stored {
		return nil, corruptf("sidecar CRC mismatch: stored %08x, computed %08x", stored, got)
	}
	r := &byteReader{b: body[8:]}
	var id segIdentity
	var err error
	if id.writer, err = r.manifestString("writer id", maxWriterIDBytes); err != nil {
		return nil, err
	}
	if id.first, err = r.manifestInt("first snapshot", maxManifestSnap); err != nil {
		return nil, err
	}
	if id.count, err = r.manifestInt("snapshot count", maxManifestSnap); err != nil {
		return nil, err
	}
	size, err := r.manifestInt("segment size", 1<<62)
	if err != nil {
		return nil, err
	}
	id.size = int64(size)
	crcBytes, err := r.bytes(4)
	if err != nil {
		return nil, err
	}
	id.crc = binary.LittleEndian.Uint32(crcBytes)
	if id != want {
		return nil, corruptf("sidecar is for segment %s@%d+%d (%d bytes, crc %08x), not %s@%d+%d (%d bytes, crc %08x)",
			id.writer, id.first, id.count, id.size, id.crc, want.writer, want.first, want.count, want.size, want.crc)
	}
	if id.count < 1 || id.first+id.count > maxSnapshots {
		return nil, corruptf("sidecar of segment span %d+%d", id.first, id.count)
	}

	// The counts size the decode's three allocations, so the bytes bound
	// them: a token costs at least two bytes (its length, one byte of it),
	// a run two, and a posting a /24 and a run count besides its runs.
	var counts [3]uint64
	for i := range counts {
		if counts[i], err = r.uvarint(); err != nil {
			return nil, err
		}
	}
	nTokens, nPosts, nRuns := counts[0], counts[1], counts[2]
	if left := uint64(len(r.b)); nTokens > left/2 || nRuns > left/2 || nPosts > left/4 || nPosts < nTokens || nRuns < nPosts {
		return nil, corruptf("sidecar claims %d tokens, %d postings, %d runs in %d bytes", nTokens, nPosts, nRuns, left)
	}
	b, at := r.b, 0
	next := func() uint64 { // a uvarint; at goes negative when the bytes end
		var v uint64
		if at >= 0 {
			v, at = footerUvarint(b, at)
		}
		return v
	}
	sn := &segNames{tokens: make([]string, nTokens), keys: make([]uint64, nTokens), posts: make([]segPosting, 0, nPosts), runs: make([]interval, 0, nRuns)}
	lens := make([]int, nTokens)
	total := 0
	for i := range lens {
		n := next()
		if n == 0 || n > maxNameBytes {
			return nil, corruptf("sidecar token of %d bytes", n)
		}
		lens[i] = int(n)
		total += int(n)
	}
	if at < 0 || total > len(b)-at {
		return nil, corruptError("sidecar token table truncated")
	}
	all := string(b[at : at+total])
	at += total
	for i, n := range lens {
		sn.tokens[i], all = all[:n], all[n:]
		sn.keys[i] = tokenKey(sn.tokens[i])
		if i > 0 && tokenOrder(sn.keys[i-1], sn.tokens[i-1], sn.keys[i], sn.tokens[i]) >= 0 {
			return nil, corruptf("sidecar tokens out of order at %q", sn.tokens[i])
		}
	}
	last := uint64(id.first + id.count - 1)
	for ti := range sn.tokens {
		n := next()
		if n == 0 || n > nPosts-uint64(len(sn.posts)) {
			return nil, corruptf("sidecar token %q claims %d postings", sn.tokens[ti], n)
		}
		block := uint64(0)
		for pi := uint64(0); pi < n; pi++ {
			gap, runs := next(), next()
			if (pi > 0 && gap == 0) || gap >= 1<<24 || block+gap >= 1<<24 {
				return nil, corruptf("sidecar token %q: /24 gap %d after %d", sn.tokens[ti], gap, block)
			}
			block += gap
			if runs == 0 || runs > uint64(id.count) || runs > nRuns-uint64(len(sn.runs)) {
				return nil, corruptf("sidecar posting claims %d runs", runs)
			}
			prev, lo := uint64(id.first), int32(len(sn.runs))
			for ri := uint64(0); ri < runs; ri++ {
				gap, length := next(), next()
				if ri > 0 && gap < 2 {
					return nil, corruptError("sidecar runs touch or overlap")
				}
				if gap > last || length > last || prev+gap+length > last {
					return nil, corruptError("sidecar run outside its segment")
				}
				first := prev + gap
				prev = first + length
				sn.runs = append(sn.runs, interval{first: int32(first), last: int32(prev)})
			}
			sn.posts = append(sn.posts, segPosting{token: int32(ti), addr: uint32(block) << 8, lo: lo, hi: int32(len(sn.runs))})
		}
	}
	switch {
	case at < 0:
		return nil, corruptError("sidecar truncated")
	case at != len(b):
		return nil, corruptf("%d trailing bytes in sidecar", len(b)-at)
	case uint64(len(sn.posts)) != nPosts || uint64(len(sn.runs)) != nRuns:
		return nil, corruptf("sidecar holds %d postings and %d runs, claims %d and %d", len(sn.posts), len(sn.runs), nPosts, nRuns)
	}
	return sn, nil
}

// readSidecar loads and checks g's sidecar; nil when it is missing or
// unusable, and the segment's own frames must stand in.
func readSidecar(g *segment) *segNames {
	data, err := os.ReadFile(SidecarName(g.path))
	if err != nil {
		return nil
	}
	sn, err := decodeSidecar(data, g.identity())
	if err != nil {
		return nil
	}
	return sn
}

// WriteSegmentSidecar gives the sealed segment at path — writer writerID's
// snapshots [first, first+count) — its given-name sidecar, unless a valid
// one is already there. The sidecar is built from the segment's own
// frames, which are decoded strictly on the way (every check Open makes
// on a sealed segment), and staged next to it crash-atomically. A replica
// runs it on each segment it accepts: it builds its own index and never
// fetches one.
func WriteSegmentSidecar(path, writerID string, first, count int) error {
	if first+count > maxSnapshots {
		return fmt.Errorf("histstore: segment %s: %w", path, corruptf("span %d+%d past the timeline's bound", first, count))
	}
	f, size, seq, err := openSegmentFile(path, writerID, first, count)
	if err != nil {
		return err
	}
	defer f.Close()
	g := &segment{path: path, writerID: writerID, firstSnap: first, count: count, size: size, idx: seq.idx}
	if readSidecar(g) != nil {
		return nil
	}
	sn, err := foldSegment(seq, first, count)
	if err != nil {
		return fmt.Errorf("histstore: segment %s: %w", path, err)
	}
	return stageFile(SidecarName(path), sn.encode(g.identity()), "")
}

// join rebuilds the index of the store's sealed history from
// its segments' postings, oldest segment first, and settles it against
// cur, the states the last segment ends in at snapshot last. The segments'
// token tables are merged in their order, and each token's postings by
// /24, so every posting is built once from all its runs: runs that meet at a
// segment boundary join, every run but the newest is packed, and a newest
// run reaching last is open exactly where cur still carries its token —
// whose records then give active. Every posting is marked sealed through
// last. The index must be empty: each /24's postings map is made once, at
// its final size, after every token is joined. join reports false when
// the postings and the states disagree; the index is then unusable.
func (ix *nameIndex) join(parts []*segNames, cur map[dnswire.Prefix]blockState, last int) bool {
	type cursor struct {
		sn        *segNames
		tok, post int  // the next token and posting
		on        bool // the next token is the one being joined
	}
	curs := make([]cursor, len(parts))
	for i, sn := range parts {
		curs[i].sn = sn
	}
	// head is c's next posting, when it is one of the token being joined.
	head := func(c *cursor) (segPosting, bool) {
		if !c.on || c.post == len(c.sn.posts) {
			return segPosting{}, false
		}
		ps := c.sn.posts[c.post]
		return ps, int(ps.token) == c.tok
	}
	var (
		runs     []interval
		addrs    []uint32
		slab     []tokenPostings   // where the postings are cut from, token by token, /24 by /24
		slabs    [][]tokenPostings // the slabs filled before slab
		addrSlab []uint32          // where the tokens' /24 lists are cut from
		bytes    []byte            // where the packed intervals are cut from
		open     int               // runs left open that the states have yet to carry
		tokens   []*tokenAddrs     // the joined tokens, in join order
		perBlock = make(map[uint32]int)
	)
	for {
		token, key, any := "", uint64(0), false
		for _, c := range curs {
			if c.tok < len(c.sn.tokens) && (!any || tokenOrder(c.sn.keys[c.tok], c.sn.tokens[c.tok], key, token) < 0) {
				token, key, any = c.sn.tokens[c.tok], c.sn.keys[c.tok], true
			}
		}
		if !any {
			break
		}
		for i := range curs {
			c := &curs[i]
			c.on = c.tok < len(c.sn.tokens) && c.sn.keys[c.tok] == key && c.sn.tokens[c.tok] == token
		}
		addrs = addrs[:0]
		for {
			addr, any := uint32(0), false
			for i := range curs {
				if ps, ok := head(&curs[i]); ok && (!any || ps.addr < addr) {
					addr, any = ps.addr, true
				}
			}
			if !any {
				break
			}
			runs = runs[:0]
			for i := range curs {
				c := &curs[i]
				ps, ok := head(c)
				if !ok || ps.addr != addr {
					continue
				}
				for _, r := range c.sn.runs[ps.lo:ps.hi] {
					if n := len(runs); n > 0 && runs[n-1].last == r.first-1 {
						runs[n-1].last = r.last
					} else {
						runs = append(runs, r)
					}
				}
				c.post++
			}
			if len(slab) == cap(slab) {
				if slab != nil {
					slabs = append(slabs, slab)
				}
				slab = make([]tokenPostings, 0, 1024)
			}
			slab = append(slab, tokenPostings{newest: interval{first: -1}, open: -1})
			tp := &slab[len(slab)-1]
			if n := len(runs); runs[n-1].last == int32(last) {
				tp.open, runs = runs[n-1].first, runs[:n-1]
				open++
			}
			bytes = tp.settle(runs, bytes)
			addrs = append(addrs, addr)
			perBlock[addr]++
		}
		ta := &tokenAddrs{token: strings.Clone(token)}
		if cap(addrSlab)-len(addrSlab) < len(addrs) {
			addrSlab = make([]uint32, 0, max(len(addrs), 1024))
		}
		n := len(addrSlab)
		addrSlab = append(addrSlab, addrs...)
		ta.addrs = addrSlab[n:len(addrSlab):len(addrSlab)]
		ix.addrs[ta.token] = ta
		tokens = append(tokens, ta)
		for i := range curs {
			if c := &curs[i]; c.on {
				c.tok++
			}
		}
	}

	// Every /24's map at its final size; the slabs hold the postings in
	// the order the tokens and their /24s were joined.
	ix.blocks = make(map[uint32]map[string]*tokenPostings, len(perBlock))
	for addr, n := range perBlock {
		ix.blocks[addr] = make(map[string]*tokenPostings, n)
	}
	slabs = append(slabs, slab)
	at := 0
	for _, ta := range tokens {
		for _, addr := range ta.addrs {
			for at == len(slabs[0]) {
				slabs, at = slabs[1:], 0
			}
			ix.blocks[addr][ta.token] = &slabs[0][at]
			at++
		}
	}

	for p, st := range cur {
		addr := p.Addr.Uint32()
		block := ix.blocks[addr]
		for _, e := range st {
			ix.scratch = appendTokens(ix.scratch[:0], e.Name)
			for _, token := range ix.scratch {
				tp := block[token]
				if tp == nil || tp.open < 0 {
					return false
				}
				if tp.active == 0 {
					open--
					ix.list(token, addr, tp)
				}
				tp.active++
			}
		}
	}
	return open == 0
}

// settle makes closed, oldest first, a posting's closed intervals — the
// newest unpacked, the rest packed the way close leaves them — and marks
// the posting sealed through all of them. The packed bytes are cut from
// slab, with no room to spare: close's next append moves them out. It
// returns what is left of slab.
func (tp *tokenPostings) settle(closed []interval, slab []byte) []byte {
	if n := len(closed); n > 0 {
		tp.newest, closed = closed[n-1], closed[:n-1]
	}
	size, prev := 0, int32(0)
	for _, iv := range closed {
		size += uvarintLen(uint64(uint32(iv.first-prev))) + uvarintLen(uint64(uint32(iv.last-iv.first)))
		prev = iv.last
	}
	if size > 0 {
		if cap(slab)-len(slab) < size {
			slab = make([]byte, 0, max(size, 64<<10))
		}
		packed := slab[len(slab):len(slab)]
		for _, iv := range closed {
			packed = binary.AppendUvarint(packed, uint64(uint32(iv.first-tp.packedLast)))
			packed = binary.AppendUvarint(packed, uint64(uint32(iv.last-iv.first)))
			tp.packedLast = iv.last
		}
		tp.packed, slab = packed[:size:size], slab[:len(slab)+size]
	}
	tp.sealOff, tp.sealLast = int32(len(tp.packed)), tp.packedLast
	return slab
}

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}
