package histstore

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"slices"
	"time"

	"rdnsprivacy/internal/dnswire"
)

// A tail is the writer's active append log: a small header naming the
// index of its first snapshot, then snapshot + block frames
// (codec.go). Compaction seals a tail's snapshots into a segment and
// starts a fresh tail whose header picks up where the segment ends.
//
//	magic  8 bytes "RDNSTAL1"
//	first  uvarint (index of the first snapshot)
//	frames ...
//
// A torn final append (crash mid-write) is truncated away by the owning
// writer at open; any earlier damage is loud corruption.

// tailMagic opens every tail file.
var tailMagic = [8]byte{'R', 'D', 'N', 'S', 'T', 'A', 'L', '1'}

// encodeTailHeader builds a fresh tail's header bytes.
func encodeTailHeader(firstSnap int) []byte {
	hdr := append([]byte(nil), tailMagic[:]...)
	return appendUvarintByte(hdr, uint64(firstSnap))
}

// readTailHeader parses a tail file's header, returning the first
// snapshot index, the header length, and the file size.
func readTailHeader(f *os.File) (firstSnap int, headerLen, size int64, err error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("histstore: %w", err)
	}
	buf := make([]byte, 18) // magic + max uvarint
	n, err := f.ReadAt(buf, 0)
	if err != nil && err != io.EOF {
		return 0, 0, 0, fmt.Errorf("histstore: reading tail header: %w", err)
	}
	buf = buf[:n]
	if len(buf) < len(tailMagic)+1 || [8]byte(buf[:8]) != tailMagic {
		return 0, 0, 0, corruptError("not a histstore tail (bad magic)")
	}
	v, vn := binary.Uvarint(buf[8:])
	if vn <= 0 || v > maxManifestSnap {
		return 0, 0, 0, corruptError("tail header first-snapshot varint invalid")
	}
	return int(v), int64(8 + vn), fi.Size(), nil
}

// frameScanner walks frames off a buffered reader, tracking offsets. It
// knows the framing and nothing of what the frames mean; nothing but a
// sequencer reads one.
type frameScanner struct {
	r   *bufio.Reader
	off int64
	buf []byte // the latest frame's body
}

// next reads one frame, whose body stays valid until the call after. It
// returns io.EOF cleanly at a frame boundary and errTruncated when the
// region ends inside a frame; off then still names the frame's start.
func (fs *frameScanner) next() (frame, int64, int, error) {
	start := fs.off
	kind, err := fs.r.ReadByte()
	if err == io.EOF {
		return frame{}, start, 0, io.EOF
	}
	if err != nil {
		return frame{}, start, 0, err
	}
	if kind != frameSnap && kind != frameBase && kind != frameDelta {
		return frame{}, start, 0, corruptf("unknown frame kind 0x%02x", kind)
	}
	n, sz, err := readUvarint(fs.r)
	if err != nil {
		return frame{}, start, 0, errTruncated
	}
	if n > 1<<24 {
		return frame{}, start, 0, corruptf("frame body of %d bytes", n)
	}
	// The body and its CRC, read in one go.
	fs.buf = slices.Grow(fs.buf[:0], int(n)+4)
	framed := fs.buf[:n+4]
	if _, err := io.ReadFull(fs.r, framed); err != nil {
		return frame{}, start, 0, errTruncated
	}
	body := framed[:n]
	if err := checkFrameCRC(kind, body, binary.LittleEndian.Uint32(framed[n:])); err != nil {
		return frame{}, start, 0, err
	}
	length := 1 + sz + len(framed)
	fs.off = start + int64(length)
	return frame{kind: kind, body: body}, start, length, nil
}

// seqFrame is one frame as a sequencer yields it. For a snapshot header
// ref.snap is the snapshot it opens and unix its instant; for a block
// frame ref.snap is the snapshot it belongs to and p its /24. body is
// valid until the sequencer reads another frame.
type seqFrame struct {
	ref  blockRef
	unix int64
	p    dnswire.Prefix
	body []byte
}

// sequencer reads a frame region as what every tail and segment is: a run
// of snapshot groups. It is the one place that knows a well-formed stream
// — snapshot headers count up from the region's first snapshot, no block
// frame comes before a header, a block frame names the snapshot of the
// header above it, and the block frames of one group ascend by /24 (so a
// block has at most one) — and every reader of a frame stream goes through
// it: replay, compaction's sealing pass, and the two replica-side
// verifiers. What a torn frame means is the caller's policy: next hands
// errTruncated up with offset at the frame's start.
//
// Over a segment (openSegmentSequencer) it also gathers the refs of the
// frames it passes, and a clean end of the stream then proves the segment
// whole: as many snapshots as its header claims, and a footer index that
// matches the frames exactly — a footer that lies about its frames, or
// vice versa, is loud corruption rather than silent wrong answers.
type sequencer struct {
	sc       frameScanner
	first    int   // the region's first snapshot
	expect   int   // the index the next snapshot header must carry
	lastAddr int64 // the /24 of the current group's latest block frame, -1 before any

	idx  *segIndex // a segment's decoded footer; nil over a tail
	refs map[dnswire.Prefix][]blockRef
}

// newSequencer reads f's bytes [from, to) as snapshot groups starting at
// snapshot first.
func newSequencer(f io.ReaderAt, from, to int64, first int) *sequencer {
	return &sequencer{
		sc:     frameScanner{r: bufio.NewReaderSize(io.NewSectionReader(f, from, to-from), 1<<16), off: from},
		first:  first,
		expect: first,
	}
}

// openSegmentFile opens the sealed segment at path and validates its
// header, trailer and footer against the identity the manifest gives it,
// returning the file, its size and the sequencer over its frames.
func openSegmentFile(path, id string, first, count int) (*os.File, int64, *sequencer, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, 0, nil, &retryableOpenError{fmt.Errorf("histstore: %w", err)}
		}
		return nil, 0, nil, fmt.Errorf("histstore: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, nil, fmt.Errorf("histstore: %w", err)
	}
	seq, err := openSegmentSequencer(f, fi.Size(), id, first, count)
	if err != nil {
		f.Close()
		return nil, 0, nil, fmt.Errorf("histstore: segment %s: %w", path, err)
	}
	return f, fi.Size(), seq, nil
}

// openSegmentSequencer validates a segment file's header, trailer and
// footer against the identity the manifest gives it and returns the
// sequencer over its frame region.
func openSegmentSequencer(f *os.File, size int64, id string, first, count int) (*sequencer, error) {
	idx, frameStart, footerOff, err := readSegmentIndex(f, size, id, first, count)
	if err != nil {
		return nil, err
	}
	q := newSequencer(f, frameStart, footerOff, first)
	q.idx, q.refs = idx, make(map[dnswire.Prefix][]blockRef, len(idx.dir))
	// The validated footer says how many frames each block has: gathering
	// their refs fills room cut from one slab for each. Frames that
	// disagree with the footer outgrow their room or find none, and fail
	// the match at the end.
	total := 0
	for _, d := range idx.dir {
		n, _ := footerUvarint(idx.footer, int(d.off))
		total += int(n)
	}
	slab := make([]blockRef, total)
	for _, d := range idx.dir {
		n, _ := footerUvarint(idx.footer, int(d.off))
		p := dnswire.Prefix{Addr: dnswire.IPv4FromUint32(d.addr), Bits: 24}
		q.refs[p], slab = slab[:0:n], slab[n:]
	}
	return q, nil
}

// offset is where the next frame starts — after errTruncated, the torn
// frame.
func (q *sequencer) offset() int64 { return q.sc.off }

// snapshots is how many snapshot headers the sequencer has passed.
func (q *sequencer) snapshots() int { return q.expect - q.first }

// next yields the stream's next frame, io.EOF at its clean end.
func (q *sequencer) next() (seqFrame, error) {
	fr, off, length, err := q.sc.next()
	if err == io.EOF && q.idx != nil {
		if q.snapshots() != q.idx.count {
			return seqFrame{}, corruptf("frames hold %d snapshots, header says %d", q.snapshots(), q.idx.count)
		}
		if !q.idx.matches(q.refs) {
			return seqFrame{}, corruptError("footer index does not match frame contents")
		}
	}
	if err != nil {
		return seqFrame{}, err
	}
	out := seqFrame{ref: blockRef{kind: fr.kind, off: off, length: length}, body: fr.body}
	if fr.kind == frameSnap {
		if out.ref.snap, out.unix, err = decodeSnapBody(fr.body); err != nil {
			return seqFrame{}, err
		}
		if out.ref.snap != q.expect {
			return seqFrame{}, corruptf("snapshot header %d at offset %d, expected %d", out.ref.snap, off, q.expect)
		}
		q.expect++
		q.lastAddr = -1
		return out, nil
	}
	if q.expect == q.first {
		return seqFrame{}, corruptf("block frame at offset %d before any snapshot header", off)
	}
	if out.ref.snap, out.p, _, err = (&byteReader{b: fr.body}).blockHead(); err != nil {
		return seqFrame{}, err
	}
	if out.ref.snap != q.expect-1 {
		return seqFrame{}, corruptf("block frame for snapshot %d under header %d", out.ref.snap, q.expect-1)
	}
	addr := int64(out.p.Addr.Uint32())
	if addr <= q.lastAddr {
		return seqFrame{}, corruptf("block frame for %s at offset %d out of address order", out.p, off)
	}
	q.lastAddr = addr
	if q.refs != nil {
		q.refs[out.p] = append(q.refs[out.p], out.ref)
	}
	return out, nil
}

// writerCursor streams the writer's frames across its sources — sealed
// segments in manifest order, then the tail — without materializing its
// history: replay's whole position.
type writerCursor struct {
	w   *writerState
	src int        // the source seq reads: an index into w.segs, len(w.segs) for the tail
	seq *sequencer // nil between sources
	seg *segment   // the segment seq reads; nil over the tail
}

// openNextSource advances to the writer's next file, returning false
// when every source is consumed.
func (c *writerCursor) openNextSource() (bool, error) {
	c.src++
	w := c.w
	if c.src < len(w.segs) {
		g := w.segs[c.src]
		seq, err := g.open()
		if err != nil {
			return false, err
		}
		c.seq, c.seg = seq, g
		return true, nil
	}
	if c.src == len(w.segs) {
		first, hdrLen, size, err := readTailHeader(w.tailF)
		if err != nil {
			return false, fmt.Errorf("histstore: tail %s: %w", w.tailFile, err)
		}
		if first != w.tailFirst {
			return false, fmt.Errorf("histstore: tail %s: %w", w.tailFile,
				corruptf("header says first snapshot %d, manifest says %d", first, w.tailFirst))
		}
		w.tailHeaderLen = hdrLen
		w.tailSize = size
		c.seq, c.seg = newSequencer(w.tailF, hdrLen, size, first), nil
		return true, nil
	}
	return false, nil
}

// frame yields the writer's next frame across its sources, ok false after
// the last. A torn tail quietly ends the stream (recorded for truncation);
// a torn segment is corruption.
func (c *writerCursor) frame() (seqFrame, bool, error) {
	for {
		if c.seq == nil {
			if ok, err := c.openNextSource(); err != nil || !ok {
				return seqFrame{}, false, err
			}
		}
		fr, err := c.seq.next()
		switch {
		case err == nil:
			return fr, true, nil
		case err == io.EOF:
		case c.seg != nil:
			if errors.Is(err, errTruncated) {
				err = corruptError("truncated inside a frame")
			}
			return seqFrame{}, false, fmt.Errorf("histstore: segment %s at offset %d: %w", c.seg.path, c.seq.offset(), err)
		case errors.Is(err, errTruncated):
			c.w.tornAt = c.seq.offset()
		default:
			return seqFrame{}, false, fmt.Errorf("histstore: replaying %s at offset %d: %w", c.w.tailFile, c.seq.offset(), err)
		}
		c.seq = nil // the source is spent; the tail is the last
	}
}

// replay rebuilds the in-memory state from the writer's files — only the
// tail, when the sealed segments were adopted — committing each snapshot
// group the way Append commits one. A group ends where the next header,
// or the stream, does: its frames decode against the states the group
// before left.
func (s *Store) replay(tailOnly bool) error {
	w := s.w
	c := &writerCursor{w: w, src: -1}
	if tailOnly {
		c.src = len(w.segs) - 1
	}
	var (
		open    bool // a group is being read
		when    time.Time
		inTail  bool
		effects []frameEffect
		changes []deltaEntry // the effects' changes: they die with the group
	)
	for {
		fr, ok, err := c.frame()
		if err != nil {
			return err
		}
		if !ok || fr.ref.kind == frameSnap {
			if open {
				if n := len(s.times); n > 0 && !when.After(s.times[n-1]) {
					return fmt.Errorf("histstore: writer %q: %w", w.id, corruptf("snapshot %d not after its predecessor", n))
				}
				if len(s.times) >= maxSnapshots {
					return fmt.Errorf("histstore: timeline exceeds %d snapshots", maxSnapshots)
				}
				s.commitGroup(when, inTail, effects)
				if len(s.times) == w.tailFirst {
					// The last sealed snapshot: the states now are the ones
					// the tail continues from.
					w.sealedEnd = maps.Clone(s.cur)
				}
			}
			if !ok {
				return s.finishReplay()
			}
			open, when, inTail = true, time.Unix(fr.unix, 0).UTC(), c.seg == nil
			effects, changes = effects[:0], changes[:0]
			continue
		}
		if fr.ref.kind == frameDelta && !s.blocks.has(fr.p) {
			return fmt.Errorf("histstore: writer %q: %w", w.id, corruptf("delta for unknown block %s", fr.p))
		}
		var fe frameEffect
		if changes, err = fe.decode(fr, s.cur, changes); err != nil {
			return fmt.Errorf("histstore: writer %q: %w", w.id, err)
		}
		effects = append(effects, fe)
	}
}

// adoptSealed brings the store's sealed segments in without replaying
// them. Each segment gets every check replay would give it —
// header, trailer, footer CRC, every frame's CRC, the snapshot sequence,
// the footer's refs against the frames — and yields its instants and its
// block refs, which give the block lists, the cadence and the frame
// counts. Only the last segment's frames are decoded: it opens with a
// base of every block live at its start, so it alone holds the states the
// tail continues from, which the writer keeps as its sealed end. The name
// index is joined from the segments' sidecars (sidecar.go); a segment
// without a usable one is folded from its frames instead, and a writable
// Store stores the rebuilt sidecar. The tail then replays as it always
// has.
func (s *Store) adoptSealed() error {
	w := s.w
	if len(w.segs) == 0 {
		return nil
	}
	n := w.segs[len(w.segs)-1].lastSnap() + 1
	if n > maxSnapshots {
		return fmt.Errorf("histstore: timeline exceeds %d snapshots", maxSnapshots)
	}
	s.times = make([]time.Time, 0, n)
	blocks := make(map[dnswire.Prefix]bool)
	var changes []deltaEntry
	for i, g := range w.segs {
		seq, err := g.open()
		if err != nil {
			return err
		}
		decode := i == len(w.segs)-1
		err = seq.each(func(fr seqFrame) error {
			if fr.ref.kind == frameSnap {
				k, when := len(s.times), time.Unix(fr.unix, 0).UTC()
				if k > 0 && !when.After(s.times[k-1]) {
					return corruptf("snapshot %d not after its predecessor", k)
				}
				s.times = append(s.times, when)
				return nil
			}
			if !decode {
				return nil
			}
			var fe frameEffect
			var err error
			if changes, err = fe.decode(fr, s.cur, changes[:0]); err != nil {
				return err
			}
			setState(s.cur, fe.p, fe.state)
			return nil
		})
		if err != nil {
			return fmt.Errorf("histstore: segment %s: %w", g.path, err)
		}
		for p, refs := range seq.refs {
			blocks[p] = true
			for _, r := range refs {
				w.cadence.note(p, r.snap, r.kind)
				if r.kind == frameBase {
					s.baseFrames++
				} else {
					s.deltaFrames++
				}
			}
		}
	}
	w.sealedEnd = maps.Clone(s.cur)
	s.blocks = make(blockList, 0, len(blocks))
	for p := range blocks {
		s.blocks = append(s.blocks, p)
	}
	slices.SortFunc(s.blocks, func(a, b dnswire.Prefix) int { return cmp.Compare(a.Addr.Uint32(), b.Addr.Uint32()) })

	parts := make([]*segNames, len(w.segs))
	for i, g := range w.segs {
		if parts[i] = readSidecar(g); parts[i] == nil {
			var err error
			if parts[i], err = s.foldSidecar(g); err != nil {
				return err
			}
		}
	}
	if s.names.join(parts, s.cur, n-1) {
		return nil
	}
	// The sidecars and the states the segments end in disagree: rebuild
	// every sidecar from its segment.
	for i, g := range w.segs {
		var err error
		if parts[i], err = s.foldSidecar(g); err != nil {
			return err
		}
	}
	s.names = newNameIndex()
	if !s.names.join(parts, s.cur, n-1) {
		return fmt.Errorf("histstore: writer %q: %w", w.id, corruptError("segments' name postings disagree with their end states"))
	}
	return nil
}

// foldSidecar rebuilds segment g's sidecar from its frames (foldSegment);
// a writable Store also stores it, best effort — a read-only open writes
// nothing.
func (s *Store) foldSidecar(g *segment) (*segNames, error) {
	seq, err := openSegmentSequencer(g.f, g.size, g.writerID, g.firstSnap, g.count)
	if err != nil {
		return nil, fmt.Errorf("histstore: segment %s: %w", g.path, err)
	}
	sn, err := foldSegment(seq, g.firstSnap, g.count)
	if err != nil {
		return nil, fmt.Errorf("histstore: segment %s: %w", g.path, err)
	}
	if !s.readOnly {
		stageFile(SidecarName(g.path), sn.encode(g.identity()), "")
	}
	return sn, nil
}

// finishReplay settles what replay leaves open: a torn tail is truncated
// (by the writer only), and the byte total is recomputed from file sizes.
func (s *Store) finishReplay() error {
	w := s.w
	if w.tornAt >= 0 {
		if !s.readOnly {
			if err := w.tailF.Truncate(w.tornAt); err != nil {
				return fmt.Errorf("histstore: truncating torn tail %s: %w", w.tailFile, err)
			}
		}
		w.tailSize = w.tornAt
	}
	s.bytes = w.tailSize
	for _, g := range w.segs {
		s.bytes += g.size
	}
	return nil
}
