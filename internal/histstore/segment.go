package histstore

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"rdnsprivacy/internal/dnswire"
)

// A segment is an immutable, sealed run of one writer's snapshots,
// produced by compaction. Its frame region reuses the tail's frame
// format, but the compactor re-lays the content: every block live at the
// segment's first snapshot opens with a fresh base, mid-segment deltas
// are re-based on a sparser cadence, and the redundant delta-chain bases
// the tail accumulated are dropped — that is where compaction reclaims
// space while keeping reconstruction O(deltas to the nearest base).
//
// Layout:
//
//	magic    8 bytes "RDNSSEG1"
//	hdrlen   uvarint (header body length)
//	header   hdrlen bytes: writer id string, first uvarint, count uvarint
//	hdrcrc   4 bytes (IEEE CRC32 over the header body, little-endian)
//	frames   snapshot + block frames exactly as in a tail (codec.go)
//	footer   the per-block frame index (below)
//	trailer  footeroff 8 bytes LE, footercrc 4 bytes LE, magic 8 bytes "RDNSSEGX"
//
// Footer:
//
//	nblocks  uvarint
//	per block, sorted by /24 address ascending:
//	  prefix  3 bytes (the /24's first three octets)
//	  nrefs   uvarint
//	  per ref, snapshot order:
//	    snap  uvarint (first ref: gap from the segment's first snapshot; later: gap from previous, >= 1)
//	    kind  1 byte ('B' or 'L')
//	    off   uvarint (first ref: absolute file offset; later: gap from previous, >= 1)
//	    len   uvarint
//
// The footer is the segment's index: Open checks it against the frames
// and keeps it for the handle's life, and a replica checks it the same
// way; the trailer CRC makes any truncation or bit flip of it loud.
// Segments are written to a temp file, fsynced, and renamed, and the
// manifest references them only after the rename — so a referenced
// segment is always complete, and any damage to one is store corruption,
// never a quietly truncatable tail.

var (
	segMagic        = [8]byte{'R', 'D', 'N', 'S', 'S', 'E', 'G', '1'}
	segTrailerMagic = [8]byte{'R', 'D', 'N', 'S', 'S', 'E', 'G', 'X'}
)

// segTrailerLen is the fixed trailer size: offset + CRC + magic.
const segTrailerLen = 8 + 4 + 8

// maxSegFooterBytes bounds a loaded footer allocation.
const maxSegFooterBytes = 1 << 30

// segment is one sealed segment of a writer. firstSnap/count/size and idx
// are immutable once Open or compaction has built the segment: the index
// is validated once, whole, and serves the handle for its life. f is the
// tier-managed state: the open file, which an eviction closes and the next
// pin re-opens. mu guards it and is only ever held briefly (a re-open is
// the longest): readers take a pin, copy f out, and read without the lock,
// so any number of queries share an open segment. Closing — eviction,
// Close — happens only while no pin is out, so a file never closes
// mid-read.
type segment struct {
	path      string
	writerID  string
	firstSnap int
	count     int
	size      int64
	idx       *segIndex

	mu   sync.Mutex
	f    *os.File
	pins int  // readers holding f
	hot  bool // tracked in the tier's LRU list (guarded by the tier's mutex)
}

func (g *segment) lastSnap() int { return g.firstSnap + g.count - 1 }

// pin returns the segment's file, re-opening it if the tier closed it,
// and keeps it open until the matching unpin. The tier is notified so
// occupancy and LRU order stay current.
func (g *segment) pin(s *Store) (*os.File, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.f == nil {
		if err := g.reopen(); err != nil {
			return nil, err
		}
		s.tierLoads.Add(1)
		s.noteSegmentLoaded(g)
	} else {
		s.tier.touch(g)
	}
	g.pins++
	return g.f, nil
}

func (g *segment) unpin() {
	g.mu.Lock()
	g.pins--
	g.mu.Unlock()
}

// reopen opens the file of a segment the tier closed. Its index was
// validated when the handle built it; the file must still be as long as
// it was then. Every frame read through it is checked on its own
// (reader.readFrame). Callers hold g.mu.
func (g *segment) reopen() error {
	f, err := os.Open(g.path)
	if err != nil {
		return fmt.Errorf("histstore: %w", err)
	}
	fi, err := f.Stat()
	if err == nil && fi.Size() != g.size {
		err = corruptf("file is %d bytes, was %d when validated", fi.Size(), g.size)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("histstore: segment %s: %w", g.path, err)
	}
	g.f = f
	return nil
}

// open opens the segment for a read of all of it, as Open makes: its file
// becomes the tier's open file, its index the segment's, and the
// sequencer over its frames is returned.
func (g *segment) open() (*sequencer, error) {
	f, size, seq, err := openSegmentFile(g.path, g.writerID, g.firstSnap, g.count)
	if err != nil {
		return nil, err
	}
	g.f, g.size, g.idx = f, size, seq.idx
	return seq, nil
}

// unload closes the file; the index stays. Callers hold g.mu with no pin
// out.
func (g *segment) unload() {
	if g.f != nil {
		g.f.Close()
		g.f = nil
	}
}

// segIndex is a sealed segment's per-block frame index, flat: the footer
// bytes themselves — validated once, whole, when the index is built — and
// a directory of where each block's refs start in them, sorted by /24
// address. Building one is two allocations however many blocks the
// segment holds; a lookup is a binary search plus a decode of that one
// block's refs into the caller's buffer.
type segIndex struct {
	dir    []segDirEntry
	footer []byte
	// The geometry the footer was validated against, and its CRC.
	firstSnap, count      int
	frameStart, footerOff int64
	crc                   uint32
}

// segDirEntry locates one block's ref list (its count, then its refs)
// inside the footer.
type segDirEntry struct {
	addr uint32
	off  uint32
}

// block returns the i-th block of the directory and its refs in snapshot
// order, decoded into dst's storage.
func (ix *segIndex) block(i int, dst []blockRef) (dnswire.Prefix, []blockRef, error) {
	p := dnswire.Prefix{Addr: dnswire.IPv4FromUint32(ix.dir[i].addr), Bits: 24}
	refs, _, err := ix.blockRefs(int(ix.dir[i].off), p, dst[:0], true)
	return p, refs, err
}

// lookup returns p's refs in the segment, decoded into dst's storage (nil
// when the block has none).
func (ix *segIndex) lookup(p dnswire.Prefix, dst []blockRef) ([]blockRef, error) {
	addr := p.Addr.Uint32()
	i := sort.Search(len(ix.dir), func(k int) bool { return ix.dir[k].addr >= addr })
	if i == len(ix.dir) || ix.dir[i].addr != addr {
		return nil, nil
	}
	_, refs, err := ix.block(i, dst)
	return refs, err
}

// matches reports whether the index holds exactly the refs gathered frame
// by frame in scanned.
func (ix *segIndex) matches(scanned map[dnswire.Prefix][]blockRef) bool {
	if len(ix.dir) != len(scanned) {
		return false
	}
	var buf []blockRef
	for i := range ix.dir {
		p, refs, err := ix.block(i, buf)
		if err != nil || !slices.Equal(refs, scanned[p]) {
			return false
		}
		buf = refs
	}
	return true
}

// readSegmentHeader parses the fixed header, returning the writer id,
// first snapshot, count, and the offset where frames begin.
func readSegmentHeader(f *os.File, size int64) (id string, first, count int, frameStart int64, err error) {
	// Headers are tiny; 4KiB covers the magic, length, body, and CRC.
	buf := make([]byte, 4096)
	if size < int64(len(buf)) {
		buf = buf[:size]
	}
	if _, err := f.ReadAt(buf, 0); err != nil {
		return "", 0, 0, 0, corruptf("segment header unreadable: %v", err)
	}
	if len(buf) < len(segMagic)+1 || [8]byte(buf[:8]) != segMagic {
		return "", 0, 0, 0, corruptError("not a histstore segment (bad magic)")
	}
	rest := buf[8:]
	hdrLen, n := binary.Uvarint(rest)
	if n <= 0 || hdrLen > 1024 || int(hdrLen)+4 > len(rest)-n {
		return "", 0, 0, 0, corruptError("segment header truncated")
	}
	body := rest[n : n+int(hdrLen)]
	crcAt := rest[n+int(hdrLen):]
	if want := binary.LittleEndian.Uint32(crcAt[:4]); crc32.ChecksumIEEE(body) != want {
		return "", 0, 0, 0, corruptError("segment header CRC mismatch")
	}
	r := &byteReader{b: body}
	id, err = r.manifestString("writer id", maxWriterIDBytes)
	if err != nil {
		return "", 0, 0, 0, err
	}
	first, err = r.manifestInt("first snapshot", maxManifestSnap)
	if err != nil {
		return "", 0, 0, 0, err
	}
	count, err = r.manifestInt("snapshot count", maxManifestSnap)
	if err != nil {
		return "", 0, 0, 0, err
	}
	if err := r.done(); err != nil {
		return "", 0, 0, 0, err
	}
	return id, first, count, int64(8 + n + int(hdrLen) + 4), nil
}

// encodeSegmentHeader builds the header block for a new segment.
func encodeSegmentHeader(id string, first, count int) []byte {
	body := appendString(nil, id)
	body = binary.AppendUvarint(body, uint64(first))
	body = binary.AppendUvarint(body, uint64(count))
	out := append([]byte(nil), segMagic[:]...)
	out = binary.AppendUvarint(out, uint64(len(body)))
	out = append(out, body...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
}

// readSegmentIndex validates the trailer and decodes the footer into the
// segment's index, cross-checking the header identity against the
// manifest's view of the segment. It returns the frame region bounds
// [frameStart, footerOff) alongside the index.
func readSegmentIndex(f *os.File, size int64, wantID string, wantFirst, wantCount int) (*segIndex, int64, int64, error) {
	id, first, count, frameStart, err := readSegmentHeader(f, size)
	if err != nil {
		return nil, 0, 0, err
	}
	if id != wantID || first != wantFirst || count != wantCount {
		return nil, 0, 0, corruptf("segment header says %s@%d+%d, manifest says %s@%d+%d",
			id, first, count, wantID, wantFirst, wantCount)
	}
	if size < frameStart+segTrailerLen {
		return nil, 0, 0, corruptError("segment shorter than its trailer")
	}
	var trailer [segTrailerLen]byte
	if _, err := f.ReadAt(trailer[:], size-segTrailerLen); err != nil {
		return nil, 0, 0, corruptf("segment trailer unreadable: %v", err)
	}
	if [8]byte(trailer[12:]) != segTrailerMagic {
		return nil, 0, 0, corruptError("segment trailer magic missing (truncated?)")
	}
	footerOff := int64(binary.LittleEndian.Uint64(trailer[:8]))
	footerCRC := binary.LittleEndian.Uint32(trailer[8:12])
	footerLen := size - segTrailerLen - footerOff
	if footerOff < frameStart || footerLen < 0 || footerLen > maxSegFooterBytes {
		return nil, 0, 0, corruptf("segment footer offset %d out of range", footerOff)
	}
	footer := make([]byte, footerLen)
	if _, err := f.ReadAt(footer, footerOff); err != nil {
		return nil, 0, 0, corruptf("segment footer unreadable: %v", err)
	}
	if got := crc32.ChecksumIEEE(footer); got != footerCRC {
		return nil, 0, 0, corruptf("segment footer CRC mismatch: stored %08x, computed %08x", footerCRC, got)
	}
	idx, err := decodeSegmentFooter(footer, first, count, frameStart, footerOff)
	if err != nil {
		return nil, 0, 0, err
	}
	idx.crc = footerCRC
	return idx, frameStart, footerOff, nil
}

// encodeSegmentFooter serializes per-block refs gathered in snapshot
// order — what compaction accumulates frame by frame. Blocks are emitted
// in address order.
func encodeSegmentFooter(refs map[dnswire.Prefix][]blockRef, firstSnap int) []byte {
	blocks := make([]dnswire.Prefix, 0, len(refs))
	for p := range refs {
		blocks = append(blocks, p)
	}
	slices.SortFunc(blocks, func(a, b dnswire.Prefix) int { return cmp.Compare(a.Addr.Uint32(), b.Addr.Uint32()) })
	out := binary.AppendUvarint(nil, uint64(len(blocks)))
	for _, p := range blocks {
		out = append(out, p.Addr[0], p.Addr[1], p.Addr[2])
		rs := refs[p]
		out = binary.AppendUvarint(out, uint64(len(rs)))
		prevSnap, prevOff := firstSnap, int64(0)
		for i, r := range rs {
			out = binary.AppendUvarint(out, uint64(r.snap-prevSnap))
			out = append(out, r.kind)
			if i == 0 {
				out = binary.AppendUvarint(out, uint64(r.off))
			} else {
				out = binary.AppendUvarint(out, uint64(r.off-prevOff))
			}
			out = binary.AppendUvarint(out, uint64(r.length))
			prevSnap, prevOff = r.snap, r.off
		}
	}
	return out
}

// footerUvarint reads the uvarint at b[i:] and returns the position after
// it (negative when the bytes end or overflow first).
func footerUvarint(b []byte, i int) (uint64, int) {
	if i < len(b) && b[i] < 0x80 {
		return uint64(b[i]), i + 1
	}
	v, n := binary.Uvarint(b[i:])
	if n <= 0 {
		return 0, -1
	}
	return v, i + n
}

// minFooterBlockBytes is what a directory entry costs at least: the
// prefix, a ref count, and one ref's gap, kind, offset and length.
const minFooterBlockBytes = 3 + 1 + 4

// decodeSegmentFooter builds the index over footer, strictly validating
// every block and ref — ordering, gaps, bounds against the frame region,
// an opening base — before any lookup can trust the bytes.
func decodeSegmentFooter(footer []byte, firstSnap, count int, frameStart, footerOff int64) (*segIndex, error) {
	nBlocks, at := footerUvarint(footer, 0)
	if at < 0 {
		return nil, corruptError("bad uvarint")
	}
	if nBlocks > 1<<24 {
		return nil, corruptf("segment footer claims %d blocks", nBlocks)
	}
	ix := &segIndex{
		// A lying count must not size an allocation: the bytes bound it.
		dir:       make([]segDirEntry, 0, min(int(nBlocks), len(footer)/minFooterBlockBytes)),
		footer:    footer,
		firstSnap: firstSnap, count: count, frameStart: frameStart, footerOff: footerOff,
	}
	var prevAddr uint32
	for bi := uint64(0); bi < nBlocks; bi++ {
		if len(footer)-at < 3 {
			return nil, corruptError("truncated body")
		}
		p := dnswire.Prefix{Addr: dnswire.IPv4{footer[at], footer[at+1], footer[at+2], 0}, Bits: 24}
		at += 3
		addr := p.Addr.Uint32()
		if bi > 0 && addr <= prevAddr {
			return nil, corruptf("segment footer blocks out of order at %s", p)
		}
		prevAddr = addr
		ix.dir = append(ix.dir, segDirEntry{addr: addr, off: uint32(at)})
		var err error
		if _, at, err = ix.blockRefs(at, p, nil, false); err != nil {
			return nil, err
		}
	}
	if at != len(footer) {
		return nil, corruptf("%d trailing bytes in frame body", len(footer)-at)
	}
	return ix, nil
}

// blockRefs validates block p's ref list, which starts at footer[at], and
// returns the position after it; with collect, the refs too, appended to
// dst.
func (ix *segIndex) blockRefs(at int, p dnswire.Prefix, dst []blockRef, collect bool) ([]blockRef, int, error) {
	b := ix.footer
	bad := func() ([]blockRef, int, error) { return nil, 0, corruptError("bad uvarint") }
	nRefs, at := footerUvarint(b, at)
	if at < 0 {
		return bad()
	}
	lastSnap := ix.firstSnap + ix.count - 1
	if nRefs == 0 || nRefs > uint64(ix.count) {
		return nil, 0, corruptf("segment footer block %s claims %d refs over %d snapshots", p, nRefs, ix.count)
	}
	snap, off := ix.firstSnap, int64(0)
	for ri := uint64(0); ri < nRefs; ri++ {
		var gap, offGap, length uint64
		if gap, at = footerUvarint(b, at); at < 0 {
			return bad()
		}
		if ri > 0 && gap == 0 {
			return nil, 0, corruptf("segment footer block %s has a zero snapshot gap", p)
		}
		snap += int(gap)
		if snap < ix.firstSnap || snap > lastSnap {
			return nil, 0, corruptf("segment footer block %s ref at snapshot %d outside [%d,%d]", p, snap, ix.firstSnap, lastSnap)
		}
		if at == len(b) {
			return nil, 0, corruptError("truncated body")
		}
		kind := b[at]
		at++
		if kind != frameBase && kind != frameDelta {
			return nil, 0, corruptf("segment footer block %s has frame kind 0x%02x", p, kind)
		}
		if ri == 0 && kind != frameBase {
			return nil, 0, corruptf("segment block %s does not open with a base frame", p)
		}
		if offGap, at = footerUvarint(b, at); at < 0 {
			return bad()
		}
		if ri == 0 {
			off = int64(offGap)
		} else {
			if offGap == 0 {
				return nil, 0, corruptf("segment footer block %s has a zero offset gap", p)
			}
			off += int64(offGap)
		}
		if length, at = footerUvarint(b, at); at < 0 {
			return bad()
		}
		if off < ix.frameStart || length == 0 || length > 1<<24 || off+int64(length) > ix.footerOff {
			return nil, 0, corruptf("segment footer block %s ref [%d,+%d) outside frame region", p, off, length)
		}
		if collect {
			dst = append(dst, blockRef{snap: snap, kind: kind, off: off, length: int(length)})
		}
	}
	return dst, at, nil
}

// tier is the hot-segment LRU: at most cap segments keep their file open;
// the rest are re-opened by the next pin. Every segment keeps its index
// whatever the tier does. A capacity of zero means unbounded (every
// segment stays open).
type tier struct {
	mu  sync.Mutex
	cap int
	// lru holds hot segments, most recently used last.
	lru []*segment
}

func newTier(capacity int) *tier { return &tier{cap: capacity} }

// touch moves g to the MRU position (re-linking it if an eviction
// attempt found it busy and dropped it from the list).
func (t *tier) touch(g *segment) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if g.hot {
		for i, h := range t.lru {
			if h == g {
				copy(t.lru[i:], t.lru[i+1:])
				t.lru[len(t.lru)-1] = g
				break
			}
		}
		return
	}
	g.hot = true
	t.lru = append(t.lru, g)
}

// admit registers a just-loaded segment (nil: none, just re-check the
// capacity) and returns any LRU victims that must be unloaded to respect
// it. Callers hold g.mu; victims are returned rather than unloaded here so
// the caller can TryLock them (never blocking on, or deadlocking with, a
// concurrent pin).
func (t *tier) admit(g *segment) []*segment {
	t.mu.Lock()
	defer t.mu.Unlock()
	if g != nil && !g.hot {
		g.hot = true
		t.lru = append(t.lru, g)
	}
	if t.cap <= 0 || len(t.lru) <= t.cap {
		return nil
	}
	n := len(t.lru) - t.cap
	victims := make([]*segment, 0, n)
	for _, v := range t.lru[:n] {
		if v != g {
			v.hot = false
			victims = append(victims, v)
		}
	}
	kept := t.lru[n:]
	if len(victims) < n { // g was in the victim window; keep it
		kept = append([]*segment{g}, kept...)
	}
	t.lru = append([]*segment(nil), kept...)
	return victims
}

// len reports the hot-segment count.
func (t *tier) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.lru)
}

// noteSegmentLoaded admits g, whose file was just opened, to the tier and
// closes the files that no longer fit.
func (s *Store) noteSegmentLoaded(g *segment) { s.evict(s.tier.admit(g)) }

// trimTier evicts what the tier holds beyond its capacity: the segments an
// admission had to leave hot because a query still had them pinned.
func (s *Store) trimTier() { s.evict(s.tier.admit(nil)) }

// evict closes the files of the victims nobody is reading; a pinned (or
// momentarily locked) victim stays hot and goes back on the LRU, to be
// trimmed when its reader is done. Eviction never waits on a reader.
func (s *Store) evict(victims []*segment) {
	for _, v := range victims {
		evicted := false
		if v.mu.TryLock() {
			if evicted = v.pins == 0; evicted {
				v.unload()
			}
			v.mu.Unlock()
		}
		if evicted {
			s.tierEvictions.Add(1)
		} else {
			s.tier.touch(v)
		}
	}
}

// segmentPath joins the store directory and a manifest file name.
func (s *Store) filePath(name string) string { return filepath.Join(s.dir, name) }
