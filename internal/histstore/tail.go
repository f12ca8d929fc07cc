package histstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"time"

	"rdnsprivacy/internal/dnswire"
)

// A tail is one writer's active append log: a small header naming the
// writer-local index of its first snapshot, then snapshot + block frames
// (codec.go). Compaction seals a tail's snapshots into a segment and
// starts a fresh tail whose header picks up where the segment ends.
//
//	magic  8 bytes "RDNSTAL1"
//	first  uvarint (writer-local index of the first snapshot)
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

// frameScanner walks frames off a buffered reader, tracking offsets.
type frameScanner struct {
	r   *bufio.Reader
	off int64
}

// next reads one frame. It returns io.EOF cleanly at a frame boundary and
// errTruncated when the region ends inside a frame.
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
	body := make([]byte, n)
	if _, err := io.ReadFull(fs.r, body); err != nil {
		return frame{}, start, 0, errTruncated
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(fs.r, crcBuf[:]); err != nil {
		return frame{}, start, 0, errTruncated
	}
	if err := checkFrameCRC(kind, body, binary.LittleEndian.Uint32(crcBuf[:])); err != nil {
		return frame{}, start, 0, err
	}
	length := 1 + sz + len(body) + len(crcBuf)
	fs.off = start + int64(length)
	return frame{kind: kind, body: body}, start, length, nil
}

// replayFrameRec is one block frame of a snapshot group with its file
// location.
type replayFrameRec struct {
	fr  frame
	ref blockRef
}

// snapGroup is one snapshot's frames from one source file: the snapshot
// header plus the block frames under it.
type snapGroup struct {
	local  int
	when   time.Time
	off    int64 // snapshot frame offset (a compaction cut point in tails)
	frames []replayFrameRec
	seg    *segment // source segment; nil when the group came from the tail
}

// Cursor control-flow sentinels.
var (
	errSourceEnd  = errors.New("histstore: source end")
	errCursorDone = errors.New("histstore: cursor done")
)

// pendedFrame is the cursor's one-frame lookahead (a snapshot header
// that terminated the previous group).
type pendedFrame struct {
	fr     frame
	start  int64
	length int
	seg    *segment
}

// writerCursor streams one writer's snapshot groups across its sources —
// sealed segments in manifest order, then the tail — so the store-level
// merge can interleave writers without materializing anyone's history.
type writerCursor struct {
	s    *Store
	w    *writerState
	src  int
	sc   *frameScanner
	seg  *segment // segment being scanned; nil while on the tail
	pend *pendedFrame
	// group is the next group to apply (nil once exhausted).
	group *snapGroup
	// footer holds each segment's decoded footer index; segScan
	// accumulates the refs actually observed in its frames. The two must
	// agree (finishReplay), making a footer that lies about its frames —
	// or vice versa — loud corruption rather than silent wrong answers.
	footer  map[*segment]*segIndex
	segScan map[*segment]map[dnswire.Prefix][]blockRef
	deltas  []deltaEntry // decode scratch: a delta's entries die with its frame
}

func newWriterCursor(s *Store, w *writerState) *writerCursor {
	return &writerCursor{
		s:       s,
		w:       w,
		src:     -1,
		footer:  make(map[*segment]*segIndex),
		segScan: make(map[*segment]map[dnswire.Prefix][]blockRef),
	}
}

// openNextSource advances to the writer's next file, returning false
// when every source is consumed.
func (c *writerCursor) openNextSource() (bool, error) {
	c.src++
	w := c.w
	if c.src < len(w.segs) {
		g := w.segs[c.src]
		f, err := os.Open(g.path)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return false, &retryableOpenError{fmt.Errorf("histstore: %w", err)}
			}
			return false, fmt.Errorf("histstore: %w", err)
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return false, fmt.Errorf("histstore: %w", err)
		}
		refs, frameStart, footerOff, err := readSegmentIndex(f, fi.Size(), g.writerID, g.firstSnap, g.count)
		if err != nil {
			f.Close()
			return false, fmt.Errorf("histstore: segment %s: %w", g.path, err)
		}
		if len(w.times) != g.firstSnap {
			f.Close()
			return false, fmt.Errorf("histstore: segment %s: %w", g.path,
				corruptf("starts at snapshot %d, predecessors delivered %d", g.firstSnap, len(w.times)))
		}
		g.f, g.size = f, fi.Size()
		c.footer[g] = refs
		c.segScan[g] = make(map[dnswire.Prefix][]blockRef)
		c.seg = g
		c.sc = &frameScanner{
			r:   bufio.NewReaderSize(io.NewSectionReader(f, frameStart, footerOff-frameStart), 1<<16),
			off: frameStart,
		}
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
		if len(w.times) != w.tailFirst {
			return false, fmt.Errorf("histstore: tail %s: %w", w.tailFile,
				corruptf("starts at snapshot %d, segments delivered %d", w.tailFirst, len(w.times)))
		}
		w.tailHeaderLen = hdrLen
		w.tailSize = size
		c.seg = nil
		c.sc = &frameScanner{
			r:   bufio.NewReaderSize(io.NewSectionReader(w.tailF, hdrLen, size-hdrLen), 1<<16),
			off: hdrLen,
		}
		return true, nil
	}
	return false, nil
}

// nextFrame yields the writer's next frame, errSourceEnd at each source
// boundary, and errCursorDone after the last. A torn tail quietly ends
// the stream (recorded for truncation); a torn segment is corruption.
func (c *writerCursor) nextFrame() (frame, int64, int, *segment, error) {
	if p := c.pend; p != nil {
		c.pend = nil
		return p.fr, p.start, p.length, p.seg, nil
	}
	if c.sc == nil {
		ok, err := c.openNextSource()
		if err != nil {
			return frame{}, 0, 0, nil, err
		}
		if !ok {
			return frame{}, 0, 0, nil, errCursorDone
		}
	}
	fr, start, length, err := c.sc.next()
	if err == io.EOF {
		c.sc = nil
		return frame{}, 0, 0, nil, errSourceEnd
	}
	if errors.Is(err, errTruncated) {
		if c.seg != nil {
			return frame{}, 0, 0, nil, fmt.Errorf("histstore: segment %s: %w", c.seg.path,
				corruptError("truncated inside a frame"))
		}
		c.w.tornAt = start
		c.src = len(c.w.segs) + 1 // tail consumed; no further sources
		c.sc = nil
		return frame{}, 0, 0, nil, errSourceEnd
	}
	if err != nil {
		name := c.w.tailFile
		if c.seg != nil {
			name = c.seg.path
		}
		return frame{}, 0, 0, nil, fmt.Errorf("histstore: replaying %s at offset %d: %w", name, start, err)
	}
	return fr, start, length, c.seg, nil
}

// next assembles the writer's next snapshot group into c.group (nil when
// the writer is exhausted).
func (c *writerCursor) next() error {
	c.group = nil
	var g *snapGroup
	for {
		fr, start, length, seg, err := c.nextFrame()
		if err == errCursorDone {
			c.group = g
			return nil
		}
		if err == errSourceEnd {
			if g != nil {
				c.group = g
				return nil
			}
			continue
		}
		if err != nil {
			return err
		}
		if fr.kind == frameSnap {
			if g != nil {
				c.pend = &pendedFrame{fr: fr, start: start, length: length, seg: seg}
				c.group = g
				return nil
			}
			snap, unixSec, err := decodeSnapBody(fr.body)
			if err != nil {
				return fmt.Errorf("histstore: writer %q at offset %d: %w", c.w.id, start, err)
			}
			g = &snapGroup{local: snap, when: time.Unix(unixSec, 0).UTC(), off: start, seg: seg}
			continue
		}
		if g == nil {
			return fmt.Errorf("histstore: writer %q: %w", c.w.id,
				corruptf("block frame at offset %d before any snapshot header", start))
		}
		g.frames = append(g.frames, replayFrameRec{fr: fr, ref: blockRef{kind: fr.kind, off: start, length: length}})
	}
}

// replayAll rebuilds the merged in-memory state from every writer's
// files: a k-way merge of the writers' snapshot streams ordered by
// (time, writer id), running the same transition function Append uses.
func (s *Store) replayAll() error {
	curs := make([]*writerCursor, len(s.writers))
	for i, w := range s.writers {
		curs[i] = newWriterCursor(s, w)
		if err := curs[i].next(); err != nil {
			return err
		}
	}
	for {
		pick := -1
		for i, c := range curs {
			if c.group == nil {
				continue
			}
			if pick < 0 || c.group.when.Before(curs[pick].group.when) {
				pick = i
			}
		}
		if pick < 0 {
			break
		}
		c := curs[pick]
		if err := s.applyGroup(c, c.group); err != nil {
			return err
		}
		if err := c.next(); err != nil {
			return err
		}
	}
	return s.finishReplay(curs)
}

// applyGroup folds one snapshot group into the writer's and the merged
// state, mirroring Append's commit exactly.
func (s *Store) applyGroup(c *writerCursor, g *snapGroup) error {
	w := c.w
	local := len(w.times)
	if g.local != local {
		return fmt.Errorf("histstore: writer %q: %w", w.id,
			corruptf("snapshot header %d, expected %d", g.local, local))
	}
	if local > 0 && !g.when.After(w.times[local-1]) {
		return fmt.Errorf("histstore: writer %q: %w", w.id,
			corruptf("snapshot %d not after its predecessor", local))
	}
	gi := len(s.times)
	if gi >= maxSnapshots {
		return fmt.Errorf("histstore: timeline exceeds %d snapshots", maxSnapshots)
	}
	s.times = append(s.times, g.when)
	s.snapWriter = append(s.snapWriter, w.idx)
	s.snapLocal = append(s.snapLocal, local)
	w.times = append(w.times, g.when)
	w.globalIdx = append(w.globalIdx, gi)
	if g.seg == nil {
		w.tailSnapOffsets = append(w.tailSnapOffsets, g.off)
	}
	for _, rf := range g.frames {
		var p dnswire.Prefix
		var wChanges []deltaEntry
		var wState blockState
		switch rf.fr.kind {
		case frameBase:
			snap, bp, entries, err := decodeBaseBody(rf.fr.body, nil)
			if err != nil {
				return fmt.Errorf("histstore: writer %q: %w", w.id, err)
			}
			if snap != local {
				return fmt.Errorf("histstore: writer %q: %w", w.id,
					corruptf("block frame for snapshot %d under header %d", snap, local))
			}
			p, wState = bp, entries
			wChanges = diffBlock(nil, w.cur[p], wState)
			w.lastBase[p] = local
			w.deltasSince[p] = 0
			s.baseFrames++
		case frameDelta:
			snap, dp, entries, err := decodeDeltaBody(rf.fr.body, c.deltas)
			if err != nil {
				return fmt.Errorf("histstore: writer %q: %w", w.id, err)
			}
			c.deltas = entries
			if snap != local {
				return fmt.Errorf("histstore: writer %q: %w", w.id,
					corruptf("block frame for snapshot %d under header %d", snap, local))
			}
			p = dp
			if !w.known.has(p) {
				return fmt.Errorf("histstore: writer %q: %w", w.id,
					corruptf("delta for unknown block %s", p))
			}
			wChanges = entries
			wState = applyDelta(nil, w.cur[p], entries)
			w.deltasSince[p]++
			s.deltaFrames++
		}
		ref := rf.ref
		ref.snap = local
		if g.seg != nil {
			c.segScan[g.seg][p] = append(c.segScan[g.seg][p], ref)
		} else {
			w.tailBlocks[p] = append(w.tailBlocks[p], ref)
		}
		w.known.add(p)
		s.blocks.add(p)
		s.applyFrame(w, gi, p, wChanges, wState)
	}
	return nil
}

// finishReplay runs the post-merge invariants: every segment's footer
// must match its frames, torn tails are truncated (owned writers only),
// segments enter the hot tier newest-last, and the byte totals are
// recomputed from file sizes.
func (s *Store) finishReplay(curs []*writerCursor) error {
	for _, c := range curs {
		w := c.w
		for _, g := range w.segs {
			if !c.footer[g].matches(c.segScan[g]) {
				return fmt.Errorf("histstore: segment %s: %w", g.path,
					corruptError("footer index does not match frame contents"))
			}
			g.mu.Lock()
			g.idx = c.footer[g]
			g.mu.Unlock()
		}
		if w.tornAt >= 0 {
			if w.owned {
				if err := w.tailF.Truncate(w.tornAt); err != nil {
					return fmt.Errorf("histstore: truncating torn tail %s: %w", w.tailFile, err)
				}
			}
			w.tailSize = w.tornAt
		}
	}
	s.bytes = 0
	for _, w := range s.writers {
		s.bytes += w.tailSize
		for _, g := range w.segs {
			s.bytes += g.size
			s.noteSegmentLoaded(g)
		}
	}
	return nil
}
