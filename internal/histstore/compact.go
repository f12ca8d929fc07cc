package histstore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"sort"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/testutil"
)

// Compaction seals the writer's accumulated tail snapshots into an
// immutable segment and restarts the tail, reclaiming the redundant
// delta-chain rebases the append path wrote and re-basing old delta runs
// on a sparser cadence. Only the writer compacts, on its own handle: it
// holds the tail lock for its whole session, so a store's files are only
// ever written by its writer's process. The protocol is crash-atomic:
//
//	phase A (shared lock)   stream the tail's sealed range into a segment
//	                        image, starting from the states the writer's
//	                        sealed history ends in (held, not rebuilt):
//	                        every block live at the segment's start gets
//	                        an opening base, deltas are re-based every
//	                        BaseInterval snapshots, no-op rebases vanish;
//	                        the name index, clipped to the span, is the
//	                        segment's sidecar
//	stage                   write segment to *.tmp, fsync, rename; the
//	                        same for the sidecar (sidecar.go)
//	phase C (write lock)    write the replacement tail (header + the
//	                        bytes past the cut), rename it, then swap the
//	                        manifest under STORE.lock — the one commit
//	                        point — and splice the new segment, tail and
//	                        sealed end states into the live store
//	cleanup                 delete the old tail (best effort; a leftover
//	                        is swept at the next open)
//
// A crash anywhere before the manifest rename leaves the store exactly
// as it was (staged files are swept as orphans); a crash after it leaves
// the compacted layout. Queries run throughout — phase A holds only the
// read lock — and answers are bit-identical before, during, and after
// (see TestCompactionQueryEquivalence and TestCompactionCrashPoints).
//
// The testutil.Fault points, in protocol order:
//
//	histstore.compact.segment.write
//	histstore.compact.segment.rename
//	histstore.compact.sidecar.write
//	histstore.compact.sidecar.rename
//	histstore.compact.sealed
//	histstore.compact.tail.write
//	histstore.compact.tail.rename
//	histstore.compact.manifest.write
//	histstore.compact.manifest.rename
//	histstore.compact.cleanup

// ErrCompactBusy reports a Compact call while another is in flight on
// this Store.
var ErrCompactBusy = errors.New("histstore: compaction already running")

// errStoreChanged reports that another process mutated the store
// between this handle's open and its compaction commit.
var errStoreChanged = errors.New("histstore: store changed concurrently; reopen and retry")

// CompactOptions tunes a compaction run. Zero values take defaults.
type CompactOptions struct {
	// MinSeal is the minimum tail snapshots worth sealing (default: the
	// store's base interval K) — tinier tails stay put.
	MinSeal int
	// BaseInterval is the in-segment base cadence (default 4K): sparser
	// than the tail's because sealed history is read-optimized through
	// the segment footer index, not crash-truncated.
	BaseInterval int
}

// CompactResult reports a compaction's outcome.
type CompactResult struct {
	// Writer is the writer id the result describes.
	Writer string `json:"writer"`
	// Sealed is how many snapshots moved into the new segment; Segment
	// its file name.
	Sealed  int    `json:"sealed"`
	Segment string `json:"segment,omitempty"`
	// TailBytes is the sealed tail span; SegmentBytes what replaced it.
	// Their difference is the reclaimed space (negative when opening
	// bases outweigh the dropped rebases).
	TailBytes    int64 `json:"tail_bytes"`
	SegmentBytes int64 `json:"segment_bytes"`
	// Skipped carries the reason nothing was sealed ("" on success).
	Skipped string `json:"skipped,omitempty"`
}

// CompactWriter is Compact for the writer id names, which must be the
// store's own (a *WriterError otherwise). It stays because the benchmark
// harness (bench/) compacts through it; everything else calls Compact.
func (s *Store) CompactWriter(ctx context.Context, id string, opts CompactOptions) (CompactResult, error) {
	if id != s.w.id {
		return CompactResult{Writer: id}, &WriterError{Writer: s.w.id, Refused: id}
	}
	return s.Compact(ctx, opts)
}

// Compact seals the writer's tail into a segment. Only the writer
// compacts: on a WithReadOnly handle Compact returns ErrReadOnly and
// touches nothing. A tail too small to seal is skipped with the reason
// recorded. Queries keep running throughout, and Append interleaves
// between the seal and the commit.
func (s *Store) Compact(ctx context.Context, opts CompactOptions) (CompactResult, error) {
	w := s.w
	id := w.id
	res := CompactResult{Writer: id}
	if s.readOnly {
		return res, ErrReadOnly
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if !s.compactRunning.CompareAndSwap(false, true) {
		return res, ErrCompactBusy
	}
	defer s.compactRunning.Store(false)

	minSeal := opts.MinSeal
	if minSeal <= 0 {
		minSeal = s.baseEvery
	}
	segK := opts.BaseInterval
	if segK <= 0 {
		segK = 4 * s.baseEvery
	}

	// Phase A: build the segment image from the sealed tail span, under
	// the read lock so queries and the obs scrapers keep flowing.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return res, ErrClosed
	}
	first := w.tailFirst
	sealCount := len(s.times) - first
	if sealCount < minSeal {
		s.mu.RUnlock()
		res.Skipped = fmt.Sprintf("tail holds %d snapshots, need %d", sealCount, minSeal)
		return res, nil
	}
	cut := first + sealCount - 1
	cutOff := w.tailSize
	segName := segFileName(id, w.fileSeq)
	newTailName := tailFileName(id, w.fileSeq+1)
	oldTailName := w.tailFile
	oldTailHeaderLen := w.tailHeaderLen
	// The index stands at the cut: its postings clipped to the span are
	// the segment's sidecar, and no later append can reach them. They need
	// only the index and the segment only the tail, so the two are built
	// side by side.
	var names *segNames
	clipped := make(chan struct{})
	go func() {
		defer close(clipped)
		names = s.names.sealSpan(first, cut)
	}()
	build, err := s.buildSegment(first, cut, cutOff, segK)
	<-clipped
	var sidecar []byte
	if err == nil {
		sidecar = names.encode(segIdentity{writer: id, first: first, count: sealCount, size: int64(len(build.data)), crc: build.idx.crc})
	}
	s.mu.RUnlock()
	if err != nil {
		return res, err
	}
	res.Sealed = sealCount
	res.Segment = segName
	res.TailBytes = cutOff - oldTailHeaderLen
	res.SegmentBytes = int64(len(build.data))

	// Stage the segment. Nothing references it yet.
	segPath := s.filePath(segName)
	if err := stageFile(segPath, build.data, "histstore.compact.segment"); err != nil {
		return res, err
	}
	if err := stageFile(SidecarName(segPath), sidecar, "histstore.compact.sidecar"); err != nil {
		return res, err
	}

	// The sealed pause point: tests park here to prove queries answer
	// bit-identically mid-compaction, and crash tests kill here to prove
	// a staged-but-unreferenced segment is swept harmlessly.
	if err := testutil.Fault("histstore.compact.sealed"); err != nil {
		return res, err
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}

	// Phase C: replacement tail, manifest commit, in-memory splice.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return res, ErrClosed
	}
	fi, err := w.tailF.Stat()
	if err != nil {
		return res, fmt.Errorf("histstore: %w", err)
	}
	diskSize := fi.Size()
	if diskSize < cutOff {
		return res, fmt.Errorf("%w (tail shrank)", errStoreChanged)
	}
	newHdr := encodeTailHeader(cut + 1)
	newTailBuf := make([]byte, int64(len(newHdr))+diskSize-cutOff)
	copy(newTailBuf, newHdr)
	if diskSize > cutOff {
		if _, err := w.tailF.ReadAt(newTailBuf[len(newHdr):], cutOff); err != nil {
			return res, fmt.Errorf("histstore: copying tail remainder: %w", err)
		}
	}
	newTailPath := s.filePath(newTailName)
	if err := stageFile(newTailPath, newTailBuf, "histstore.compact.tail"); err != nil {
		return res, err
	}

	// Open the replacement handles before committing, so a commit is
	// never followed by a failure to serve.
	newF, err := os.OpenFile(newTailPath, os.O_RDWR, 0)
	if err != nil {
		return res, fmt.Errorf("histstore: %w", err)
	}
	segF, err := os.Open(segPath)
	if err != nil {
		newF.Close()
		return res, fmt.Errorf("histstore: %w", err)
	}

	// Manifest read-modify-write under STORE.lock: the commit point.
	err = func() error {
		storeLock, err := acquireFileLockBlocking(filepath.Join(s.dir, storeLockName))
		if err != nil {
			return err
		}
		defer releaseFileLock(storeLock)
		m, err := readManifest(s.dir)
		if err != nil {
			return err
		}
		if m == nil || m.writer.id != id || m.writer.tailFile != oldTailName {
			return errStoreChanged
		}
		mw := &m.writer
		mw.segs = append(mw.segs, manifestSegment{file: segName, first: first, count: sealCount})
		mw.tailFile = newTailName
		mw.tailFirst = cut + 1
		mw.fileSeq = w.fileSeq + 2
		return writeManifest(s.dir, m, "histstore.compact.manifest")
	}()
	if err != nil {
		newF.Close()
		segF.Close()
		return res, err
	}

	// Committed on disk; splice the new layout into the live store.
	newSeg := &segment{
		path:      segPath,
		writerID:  id,
		firstSnap: first,
		count:     sealCount,
		size:      int64(len(build.data)),
		f:         segF,
		idx:       build.idx,
	}
	w.segs = append(w.segs, newSeg)
	oldKnownTail := w.tailSize
	oldF := w.tailF
	w.tailF = newF
	w.tailFile = newTailName
	w.fileSeq += 2
	w.tailFirst = cut + 1
	shift := int64(len(newHdr)) - cutOff
	w.tailHeaderLen = int64(len(newHdr))
	w.tailSize = int64(len(newTailBuf))
	surviving := make(map[dnswire.Prefix][]blockRef)
	for p, rs := range w.tailBlocks {
		for _, r := range rs {
			if r.snap > cut {
				r.off += shift
				surviving[p] = append(surviving[p], r)
			}
		}
	}
	w.tailBlocks = surviving
	w.sealedEnd = build.end
	// The append schedule of every block the segment re-laid is now what a
	// reopen would replay: the segment's own cadence, then the frames that
	// survive in the tail.
	for p := range build.refs {
		w.cadence[p] = build.cadence[p]
		for _, r := range surviving[p] {
			w.cadence.note(p, r.snap, r.kind)
		}
	}
	s.names.sealed(cut)
	s.baseFrames += build.baseFrames - build.sealedBases
	s.deltaFrames += build.deltaFrames - build.sealedDeltas
	s.bytes += newSeg.size + w.tailSize - oldKnownTail
	oldF.Close()

	s.compactions.Add(1)
	s.compactSealed.Add(uint64(sealCount))
	reclaimed := res.TailBytes - res.SegmentBytes
	s.compactReclaim.Add(reclaimed)
	if reclaimed > 0 {
		s.compactGained.Add(uint64(reclaimed))
	}

	// Cleanup is outside the commit: a leftover old tail is unreferenced
	// and swept at the next open.
	if err := testutil.Fault("histstore.compact.cleanup"); err != nil {
		return res, err
	}
	os.Remove(s.filePath(oldTailName))
	return res, nil
}

// segBuild is the in-memory image of a segment under construction.
type segBuild struct {
	data    []byte
	body    []byte                        // one frame body at a time
	refs    map[dnswire.Prefix][]blockRef // gathered frame by frame
	cadence cadence                       // the segment's own rebase schedule
	idx     *segIndex                     // the index a reload of the image would build
	// end is the live block states at the cut, decoded from the sealed
	// tail bytes: the writer's sealed end once the segment commits.
	end map[dnswire.Prefix]blockState
	// Frames emitted into the segment vs the original frames sealed out
	// of the tail — the difference adjusts the store's frame counters.
	baseFrames, deltaFrames   int
	sealedBases, sealedDeltas int
}

// emit appends a frame of the given kind at snapshot snap to the image —
// fe's state as a base, or its changes as a delta — and indexes it.
func (b *segBuild) emit(kind byte, snap int, fe frameEffect) {
	start := len(b.data)
	if kind == frameBase {
		b.body = appendBaseBody(b.body[:0], snap, fe.p, fe.state)
		b.baseFrames++
	} else {
		b.body = appendDeltaBody(b.body[:0], snap, fe.p, fe.changes)
		b.deltaFrames++
	}
	b.data = appendFrame(b.data, kind, b.body)
	b.refs[fe.p] = append(b.refs[fe.p], blockRef{snap: snap, kind: kind, off: int64(start), length: len(b.data) - start})
	b.cadence.note(fe.p, snap, kind)
}

// buildSegment streams the tail span [first, cut] into a segment image:
// carried-over block states get opening bases, original frames re-encode
// under the sparser segK cadence, and rebases that change nothing are
// dropped. first is the writer's tailFirst, so the carried-over states
// are its sealed end. Callers hold at least the read lock.
func (s *Store) buildSegment(first, cut int, cutOff int64, segK int) (*segBuild, error) {
	w := s.w
	running := make(map[dnswire.Prefix]blockState, len(w.sealedEnd))
	maps.Copy(running, w.sealedEnd)

	// The image holds about the span's tail bytes, an opening base for
	// every block live at its start, and a footer of a few bytes a frame;
	// a sixteenth more leaves room for the frames' re-encoding, so that
	// the image is one allocation, not a run of growing copies.
	size := cutOff + cutOff/16
	for _, st := range running {
		size += int64(baseFrameBound(st))
	}
	for _, refs := range w.tailBlocks {
		size += 8 * int64(len(refs))
	}
	count := cut - first + 1
	b := &segBuild{
		data:    append(make([]byte, 0, size), encodeSegmentHeader(w.id, first, count)...),
		refs:    make(map[dnswire.Prefix][]blockRef),
		cadence: make(cadence),
	}
	frameStart := int64(len(b.data))

	// The opening snapshot: every live block gets a fresh base, in address
	// order, whether or not the tail touched it there.
	var firstGroup []dnswire.Prefix // the blocks the tail did touch there
	flushFirst := func() {
		order := make([]dnswire.Prefix, 0, len(running)+len(firstGroup))
		for p := range running {
			order = append(order, p)
		}
		for _, p := range firstGroup {
			if _, live := running[p]; !live {
				order = append(order, p)
			}
		}
		sort.Slice(order, func(i, j int) bool { return order[i].Addr.Uint32() < order[j].Addr.Uint32() })
		for _, p := range order {
			b.emit(frameBase, first, frameEffect{p: p, state: running[p]})
		}
	}

	seq := newSequencer(w.tailF, w.tailHeaderLen, cutOff, first)
	var changes []deltaEntry
	for {
		fr, err := seq.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("histstore: sealing %s at offset %d: %w", w.tailFile, seq.offset(), err)
		}
		snap := fr.ref.snap
		if fr.ref.kind == frameSnap {
			if snap == first+1 {
				flushFirst()
			}
			b.body = appendSnapBody(b.body[:0], snap, fr.unix)
			b.data = appendFrame(b.data, frameSnap, b.body)
			continue
		}
		var fe frameEffect
		if changes, err = fe.decode(fr, running, changes[:0]); err != nil {
			return nil, fmt.Errorf("histstore: sealing %s: %w", w.tailFile, err)
		}
		p := fe.p
		setState(running, p, fe.state)
		if fr.ref.kind == frameBase {
			b.sealedBases++
		} else {
			b.sealedDeltas++
		}
		switch {
		case snap == first:
			firstGroup = append(firstGroup, p)
		case len(b.refs[p]) == 0:
			// A block's first in-segment frame must be a base — the
			// invariant the walk's absence-means-dead rule needs.
			b.emit(frameBase, snap, fe)
		case b.cadence.due(p, snap, segK):
			b.emit(frameBase, snap, fe)
		case len(fe.changes) > 0:
			b.emit(frameDelta, snap, fe)
		default:
			// A rebase that changed nothing: reclaimed.
		}
	}
	if seq.snapshots() != count {
		return nil, corruptf("sealing %s: span holds %d snapshots, expected %d", w.tailFile, seq.snapshots(), count)
	}
	if count == 1 {
		flushFirst()
	}

	footerOff := int64(len(b.data))
	footer := encodeSegmentFooter(b.refs, first)
	var err error
	if b.idx, err = decodeSegmentFooter(footer, first, count, frameStart, footerOff); err != nil {
		return nil, fmt.Errorf("histstore: sealing %s: built an invalid footer: %w", w.tailFile, err)
	}
	b.idx.crc = crc32.ChecksumIEEE(footer)
	b.data = append(b.data, footer...)
	b.data = binary.LittleEndian.AppendUint64(b.data, uint64(footerOff))
	b.data = binary.LittleEndian.AppendUint32(b.data, b.idx.crc)
	b.data = append(b.data, segTrailerMagic[:]...)
	b.end = running
	return b, nil
}
