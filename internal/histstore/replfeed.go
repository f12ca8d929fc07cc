package histstore

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// Replication feed: the primary-side export hooks internal/replica and
// rdnsserve's /v1/repl/* endpoints are built on, plus the replica-side
// verification and commit helpers. The feed is derived entirely from the
// store's crash-atomic layout:
//
//   - FeedManifest snapshots the current file set — the writer's sealed
//     segments (content-addressed by their trailer CRCs) and the
//     committed byte count of its active tail.
//   - FeedReadSegment serves immutable segment bytes; segments are never
//     rewritten or deleted once sealed, so a fetch can resume at any
//     offset across primary restarts and compactions.
//   - FeedReadTail serves the committed prefix of the writer's tail.
//     Append commits bytes under the store's write lock and tail files
//     are never reused (compaction starts a fresh file name), so the
//     region [0, committed) is immutable and a replica can resume a
//     delta pull from its local file size.
//
// A replica downloads segments once, appends tail deltas, verifies every
// file (VerifySegmentFile / VerifyTailFile — bit flips and truncation
// are loud errors, never silently wrong answers), and commits the new
// generation with WriteFeedManifest, the same tmp+fsync+rename protocol
// every other store mutation uses.

// ErrFeedUnknownFile reports a feed read for a file the store's current
// manifest does not reference.
var ErrFeedUnknownFile = errors.New("histstore: feed file not in manifest")

// ErrFeedTailChanged reports a tail delta request naming a tail file the
// writer no longer appends to (a compaction started a fresh tail). The
// replica must refetch the manifest and pull the new tail from scratch.
var ErrFeedTailChanged = errors.New("histstore: writer tail changed")

// ErrFeedBadRange reports a feed read offset outside the file's (or the
// tail's committed) byte range — a malformed request, not corruption.
var ErrFeedBadRange = errors.New("histstore: feed offset out of range")

// FeedSegment describes one sealed, immutable segment in a feed
// manifest. CRC is the segment's footer CRC from its fixed trailer — the
// content address a replica checks its download against.
type FeedSegment struct {
	File  string `json:"file"`
	First int    `json:"first"`
	Count int    `json:"count"`
	Size  int64  `json:"size"`
	CRC   uint32 `json:"crc"`
}

// FeedWriter is the writer's share of a feed manifest. TailSize is the
// committed byte count of the active tail (header included); bytes past
// it are either absent or a torn append and are never served.
type FeedWriter struct {
	ID        string        `json:"id"`
	FileSeq   int           `json:"file_seq"`
	TailFile  string        `json:"tail_file"`
	TailFirst int           `json:"tail_first"`
	TailSize  int64         `json:"tail_size"`
	Segments  []FeedSegment `json:"segments,omitempty"`
}

// FeedManifest is a point-in-time description of the store's replicable
// file set, consistent under the store lock: the segment table and tail
// size belong to one committed state. Writers lists the store's one
// writer: the wire's shape.
type FeedManifest struct {
	BaseInterval int          `json:"base_interval"`
	Snapshots    int          `json:"snapshots"`
	LastSnap     time.Time    `json:"last_snap,omitzero"`
	TotalBytes   int64        `json:"total_bytes"`
	Writers      []FeedWriter `json:"writers"`
}

// FeedManifest snapshots the store's replicable file set. The returned
// manifest is self-consistent: it describes one committed store state,
// taken under the store's read lock.
func (s *Store) FeedManifest() (FeedManifest, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return FeedManifest{}, ErrClosed
	}
	fm := FeedManifest{BaseInterval: s.baseEvery, Snapshots: len(s.times)}
	if n := len(s.times); n > 0 {
		fm.LastSnap = s.times[n-1]
	}
	w := s.w
	fw := FeedWriter{
		ID:        w.id,
		FileSeq:   w.fileSeq,
		TailFile:  w.tailFile,
		TailFirst: w.tailFirst,
		TailSize:  w.tailSize,
	}
	for _, g := range w.segs {
		fw.Segments = append(fw.Segments, FeedSegment{
			File:  filepath.Base(g.path),
			First: g.firstSnap,
			Count: g.count,
			Size:  g.size,
			CRC:   g.idx.crc,
		})
		fm.TotalBytes += g.size
	}
	fm.TotalBytes += w.tailSize
	fm.Writers = []FeedWriter{fw}
	return fm, nil
}

// FeedReadSegment serves up to max bytes of the named sealed segment
// starting at off, returning the chunk and the segment's total size.
// Only files the current manifest references are served (no path
// traversal: names are matched against the in-memory segment set, never
// joined from request input). Segments are immutable, so any (off, max)
// window is stable across calls.
func (s *Store) FeedReadSegment(name string, off int64, max int) ([]byte, int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, 0, ErrClosed
	}
	var g *segment
	for _, h := range s.w.segs {
		if filepath.Base(h.path) == name {
			g = h
		}
	}
	if g == nil {
		return nil, 0, fmt.Errorf("%w: segment %q", ErrFeedUnknownFile, name)
	}
	if off < 0 || off > g.size {
		return nil, 0, fmt.Errorf("%w: segment %q offset %d not in [0, %d]", ErrFeedBadRange, name, off, g.size)
	}
	if max <= 0 || int64(max) > g.size-off {
		max = int(g.size - off)
	}
	buf := make([]byte, max)
	if _, err := g.f.ReadAt(buf, off); err != nil {
		return nil, 0, fmt.Errorf("histstore: reading feed segment %q: %w", name, err)
	}
	return buf, g.size, nil
}

// FeedTailInfo identifies the writer's active tail at read time.
type FeedTailInfo struct {
	File  string // tail file name
	First int    // index of the tail's first snapshot
	Size  int64  // committed bytes (header included)
}

// FeedReadTail serves up to max bytes of the committed tail region of
// writer, which must be the store's, starting at off, plus the tail's
// identity. When wantFile is non-empty
// and no longer the writer's active tail (compaction swapped it), the
// read fails with ErrFeedTailChanged and the current identity, telling
// the replica to restart its tail pull from the new file. off may equal
// the committed size (an empty caught-up read).
func (s *Store) FeedReadTail(writer, wantFile string, off int64, max int) ([]byte, FeedTailInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, FeedTailInfo{}, ErrClosed
	}
	w := s.w
	if writer != w.id {
		return nil, FeedTailInfo{}, fmt.Errorf("%w: writer %q", ErrFeedUnknownFile, writer)
	}
	info := FeedTailInfo{File: w.tailFile, First: w.tailFirst, Size: w.tailSize}
	if wantFile != "" && wantFile != w.tailFile {
		return nil, info, fmt.Errorf("%w: %q is now %q", ErrFeedTailChanged, wantFile, w.tailFile)
	}
	if off < 0 || off > w.tailSize {
		return nil, info, fmt.Errorf("%w: tail %q offset %d not in [0, %d]", ErrFeedBadRange, w.tailFile, off, w.tailSize)
	}
	if max <= 0 || int64(max) > w.tailSize-off {
		max = int(w.tailSize - off)
	}
	buf := make([]byte, max)
	if max > 0 {
		// Committed tail bytes are immutable and Append serializes against
		// this read lock, so a ReadAt within [0, tailSize) is stable.
		if _, err := w.tailF.ReadAt(buf, off); err != nil {
			return nil, info, fmt.Errorf("histstore: reading feed tail %q: %w", w.tailFile, err)
		}
	}
	return buf, info, nil
}

// VerifySegmentFile fully validates a downloaded segment file against
// its manifest identity: header, trailer, footer CRC, footer index
// decode, and a sequenced scan of the data region — every frame's CRC,
// snapshot headers counting first..first+count-1, and the footer's refs
// matching the frames exactly. Together the checks cover every byte of
// the file, and they are the ones Open applies: a segment that passes
// here replays. It returns the file size and the trailer's footer CRC so
// callers can match the feed's content address. Any truncation, bit flip
// or internally inconsistent segment is a loud error.
func VerifySegmentFile(path, writerID string, first, count int) (int64, uint32, error) {
	f, size, seq, err := openSegmentFile(path, writerID, first, count)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	if err := seq.each(nil); err != nil {
		return 0, 0, fmt.Errorf("histstore: segment %s: %w", path, err)
	}
	return size, seq.idx.crc, nil
}

// each reads the stream to its end, handing every frame to fn (when not
// nil) and stopping at its first error; the sequencer's own checks run
// either way. A region that ends inside a frame is an error here: a
// replica never commits bytes it cannot prove frame-aligned, and a sealed
// segment is whole.
func (q *sequencer) each(fn func(seqFrame) error) error {
	for {
		fr, err := q.next()
		switch {
		case err == nil:
		case err == io.EOF:
			return nil
		case errors.Is(err, errTruncated):
			return corruptf("truncated inside a frame at offset %d", q.offset())
		default:
			return fmt.Errorf("at offset %d: %w", q.offset(), err)
		}
		if fn != nil {
			if err := fn(fr); err != nil {
				return fmt.Errorf("at offset %d: %w", q.offset(), err)
			}
		}
	}
}

// VerifyTailFile validates the first size bytes of a downloaded tail
// file: magic, header first-snapshot == first, and a sequenced scan of
// [header, size) with every frame CRC checked and snapshot headers
// counting up contiguously from first. It returns the number of
// snapshots in the verified region. A scan that ends inside a frame is
// an error, so a truncated or bit-flipped delta pull fails loudly instead
// of quietly serving fewer (or wrong) snapshots.
func VerifyTailFile(path string, first int, size int64) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("histstore: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("histstore: %w", err)
	}
	if fi.Size() < size {
		return 0, fmt.Errorf("histstore: tail %s: %w", path,
			corruptf("file is %d bytes, verifying %d", fi.Size(), size))
	}
	gotFirst, hdrLen, _, err := readTailHeader(f)
	if err != nil {
		return 0, fmt.Errorf("histstore: tail %s: %w", path, err)
	}
	if gotFirst != first {
		return 0, fmt.Errorf("histstore: tail %s: %w", path,
			corruptf("header says first snapshot %d, manifest says %d", gotFirst, first))
	}
	if size < hdrLen {
		return 0, fmt.Errorf("histstore: tail %s: %w", path,
			corruptf("verified size %d is inside the %d-byte header", size, hdrLen))
	}
	seq := newSequencer(f, hdrLen, size, first)
	if err := seq.each(nil); err != nil {
		return 0, fmt.Errorf("histstore: tail %s: %w", path, err)
	}
	return seq.snapshots(), nil
}

// Writer returns fm's one writer, or the first reason a replica must not
// touch its files: a writer count other than one (a *WriterError), a
// writer id outside 1..64 bytes of [a-z0-9_-], or a tail or segment file
// name that is not a plain, non-reserved basename and could escape a
// store directory. A replica calls it before it joins any feed-supplied
// name into a local path. WriteFeedManifest re-validates at commit time,
// but by then a hostile name would already have been touched on disk.
func (fm FeedManifest) Writer() (FeedWriter, error) {
	if len(fm.Writers) != 1 {
		e := &WriterError{}
		if len(fm.Writers) > 1 {
			e.Writer, e.Refused = fm.Writers[0].ID, fm.Writers[1].ID
		}
		return FeedWriter{}, fmt.Errorf("histstore: feed manifest lists %d writers: %w", len(fm.Writers), e)
	}
	w := fm.Writers[0]
	if !validWriterID(w.ID) {
		return w, fmt.Errorf("histstore: feed manifest carries invalid writer id %q", w.ID)
	}
	if !validStoreFileName(w.TailFile) {
		return w, fmt.Errorf("histstore: feed manifest carries unsafe tail file name %q for writer %s", w.TailFile, w.ID)
	}
	for _, g := range w.Segments {
		if !validStoreFileName(g.File) {
			return w, fmt.Errorf("histstore: feed manifest carries unsafe segment file name %q for writer %s", g.File, w.ID)
		}
	}
	return w, nil
}

// CheckFeedFollows refuses a feed writer fw that does not follow the
// store committed in dir: one naming another writer (a *WriterError), or
// putting the writer's file sequence below the committed one, which comes
// from a primary served from an older copy of its store — committing it
// would silently shrink the history the directory serves. A directory
// with no readable manifest accepts any writer. A replica calls it before
// it fetches anything, so a refused feed leaves no file behind;
// WriteFeedManifest calls it again at commit.
func CheckFeedFollows(dir string, fw FeedWriter) error {
	cur, err := readManifest(dir)
	if err != nil || cur == nil {
		return nil
	}
	if cur.writer.id != fw.ID {
		return fmt.Errorf("histstore: feed manifest names another writer: %w",
			&WriterError{Writer: cur.writer.id, Refused: fw.ID})
	}
	if fw.FileSeq < cur.writer.fileSeq {
		return fmt.Errorf("histstore: feed manifest puts writer %q at file sequence %d, committed %d: refusing to move backwards",
			fw.ID, fw.FileSeq, cur.writer.fileSeq)
	}
	return nil
}

// WriteFeedManifest commits a replica's synced file set as the store
// directory's manifest, using the same atomic tmp+fsync+rename protocol
// every other store mutation uses. The manifest is validated by an
// encode/decode round trip first — the same strict checks Open applies —
// so an inconsistent feed (a writer count other than one, segments not
// tiling [0, tailFirst), bad names) fails before anything is committed.
// A feed that does not follow the committed manifest (CheckFeedFollows)
// fails too. It reports whether the directory's manifest actually
// advanced: a byte-identical re-commit is skipped, so a caught-up
// replica's sync is a no-op.
func WriteFeedManifest(dir string, fm FeedManifest) (bool, error) {
	if fm.BaseInterval <= 0 {
		return false, fmt.Errorf("histstore: feed manifest base interval %d", fm.BaseInterval)
	}
	fw, err := fm.Writer()
	if err != nil {
		return false, err
	}
	m := &storeManifest{baseEvery: fm.BaseInterval, writer: manifestWriter{
		id:        fw.ID,
		fileSeq:   fw.FileSeq,
		tailFile:  fw.TailFile,
		tailFirst: fw.TailFirst,
	}}
	for _, g := range fw.Segments {
		m.writer.segs = append(m.writer.segs, manifestSegment{file: g.File, first: g.First, count: g.Count})
	}
	enc := encodeManifest(m)
	if _, err := decodeManifest(enc); err != nil {
		return false, fmt.Errorf("histstore: feed manifest invalid: %w", err)
	}
	if err := CheckFeedFollows(dir, fw); err != nil {
		return false, err
	}
	if cur, err := readManifest(dir); err == nil && cur != nil && bytes.Equal(encodeManifest(cur), enc) {
		return false, nil
	}
	if err := writeManifest(dir, m, ""); err != nil {
		return false, err
	}
	return true, nil
}
