package histstore

import (
	"cmp"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"

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

// segment is one sealed segment of a writer, an immutable value once
// Open or compaction has built it: its path and identity, its index —
// validated once, whole — and its open file, which stays open until
// Store.Close. Every read holds the store's read lock and Close takes the
// write lock, so a file never closes mid-read, and any number of queries
// share it.
type segment struct {
	path      string
	writerID  string
	firstSnap int
	count     int
	size      int64
	idx       *segIndex
	f         *os.File
}

func (g *segment) lastSnap() int { return g.firstSnap + g.count - 1 }

// open opens the segment for a read of all of it, as Open makes: its file
// and index become the segment's, and the sequencer over its frames is
// returned.
func (g *segment) open() (*sequencer, error) {
	f, size, seq, err := openSegmentFile(g.path, g.writerID, g.firstSnap, g.count)
	if err != nil {
		return nil, err
	}
	g.f, g.size, g.idx = f, size, seq.idx
	return seq, nil
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

// filePath joins the store directory and a manifest file name.
func (s *Store) filePath(name string) string { return filepath.Join(s.dir, name) }
