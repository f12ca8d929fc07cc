package histstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"rdnsprivacy/internal/dnswire"
)

// The block walk is the store's one read primitive. A /24's history is a
// run of frames — a base, the deltas after it, the next base — spread
// over the writer's sealed segments and its tail. A walk seeds the
// block's state once, at the first snapshot a query needs (from the
// reconstruction cache, or by replaying from the nearest base), and then
// moves forward snapshot by snapshot, decoding each frame it passes
// exactly once. At is a seed alone; Range and Churn are a seed plus the
// frames of their window. A tail's frames continue the state the
// writer's sealed history ends in, which the store holds
// (writerState.sealedEnd): seeding there is a map read, not a walk.
//
// Everything a query reads goes through one reader, which owns the
// buffers frames are read and decoded into. The files it reads stay open
// while the query holds the store's read lock.

// reader is one query's I/O state.
type reader struct {
	s    *Store
	buf  []byte       // the frame being decoded
	ents []deltaEntry // the delta being applied, or a diff being counted
}

// readFrame reads the frame ref locates into the reader's buffer,
// verifies its CRC, and checks it is the frame the index says it is: the
// right kind, and nothing but that frame.
func (r *reader) readFrame(f *os.File, ref blockRef) (frame, error) {
	if cap(r.buf) < ref.length {
		r.buf = make([]byte, ref.length)
	}
	buf := r.buf[:ref.length]
	if _, err := f.ReadAt(buf, ref.off); err != nil {
		return frame{}, fmt.Errorf("histstore: reading frame at %d: %w", ref.off, err)
	}
	fr, rest, err := decodeFrame(buf)
	if err != nil {
		return frame{}, err
	}
	if len(rest) != 0 {
		return frame{}, corruptf("frame at %d shorter than indexed", ref.off)
	}
	if fr.kind != ref.kind {
		return frame{}, corruptf("frame at %d is kind 0x%02x, indexed as 0x%02x", ref.off, fr.kind, ref.kind)
	}
	return fr, nil
}

// checkFrameIdentity is the (snapshot, /24) check of a decoded block
// frame against the index entry that led to it.
func checkFrameIdentity(ref blockRef, p dnswire.Prefix, fsnap int, fp dnswire.Prefix) error {
	if fsnap != ref.snap || fp != p {
		return corruptf("frame at %d is for %s@%d, expected %s@%d", ref.off, fp, fsnap, p, ref.snap)
	}
	return nil
}

// apply advances st through the block frame at ref: a base replaces the
// state, a delta patches it. For a delta it returns the decoded entries,
// valid until the reader decodes another frame. A frame that fails its
// checks is an error naming the file, the /24 and the snapshot.
func (r *reader) apply(st *evolving, f *os.File, ref blockRef, p dnswire.Prefix) ([]deltaEntry, error) {
	delta, err := r.applyFrame(st, f, ref, p)
	if err != nil {
		return nil, fmt.Errorf("histstore: %s: block %s at snapshot %d: %w", filepath.Base(f.Name()), p, ref.snap, err)
	}
	return delta, nil
}

func (r *reader) applyFrame(st *evolving, f *os.File, ref blockRef, p dnswire.Prefix) ([]deltaEntry, error) {
	fr, err := r.readFrame(f, ref)
	if err != nil {
		return nil, err
	}
	if fr.kind == frameBase {
		fsnap, fp, entries, err := decodeBaseBody(fr.body, st.cur, st.scratch())
		if err != nil {
			return nil, err
		}
		if err := checkFrameIdentity(ref, p, fsnap, fp); err != nil {
			return nil, err
		}
		st.replace(entries)
		return nil, nil
	}
	fsnap, fp, entries, err := decodeDeltaBody(fr.body, st.cur, r.ents[:0])
	if err != nil {
		return nil, err
	}
	r.ents = entries
	if err := checkFrameIdentity(ref, p, fsnap, fp); err != nil {
		return nil, err
	}
	st.replace(applyDelta(st.scratch(), st.cur, entries))
	return entries, nil
}

// lastRefAtOrBefore finds the newest of a block's refs at or before
// snapshot ls (-1 when every ref is later).
func lastRefAtOrBefore(refs []blockRef, ls int) int {
	return sort.Search(len(refs), func(k int) bool { return refs[k].snap > ls }) - 1
}

// reconstruct rebuilds a block state from refs[..i] read out of f: the
// nearest base at or before i plus the deltas in between. A tail run may
// have no base (it continues the last segment); inTail says refs is one,
// and the replay then starts from the held state the sealed history ends
// in.
// Results are cached under (block, version snapshot) — the block's newest
// frame at or before the query — so every seed between two writes of a
// block shares one entry, and entries survive compaction because a
// snapshot's reconstructed state is bit-identical across it.
func (r *reader) reconstruct(p dnswire.Prefix, refs []blockRef, i int, f *os.File, inTail bool) (blockState, error) {
	s := r.s
	key := cacheKey{p: p, snap: refs[i].snap}
	if st, ok := s.cache.get(key); ok {
		return st, nil
	}
	b := i
	for b >= 0 && refs[b].kind != frameBase {
		b--
	}
	var st evolving
	start := b
	if b < 0 {
		if !inTail {
			return nil, corruptf("block %s has no base frame", p)
		}
		st.share(s.w.sealedEnd[p])
		start = 0
	}
	s.reconstructions.Add(1)
	for j := start; j <= i; j++ {
		if _, err := r.apply(&st, f, refs[j], p); err != nil {
			return nil, err
		}
	}
	if s.cache != nil {
		s.cache.put(key, st.cur)
	}
	return st.cur, nil
}

// writerWalk is one /24 moving forward through the writer's snapshots.
// The query's reader is handed to each method rather than held, so a
// point query's reader can live on its stack. A walk is reused block
// after block (init), keeping its buffers.
type writerWalk struct {
	w      *writerState
	p      dnswire.Prefix
	seeded bool
	at     int      // the snapshot state holds at; -1 before history
	state  evolving // shared with the cache until the first frame is applied
	// The block's frames in the source the walk stands in: src indexes
	// w.segs, len(w.segs) is the tail, -1 is before any source.
	src    int
	refs   []blockRef
	next   int // refs[next] is the block's first frame after at
	f      *os.File
	refBuf []blockRef // storage of refs decoded out of a segment index
}

// init readies the walk for block p of the store r reads.
func (b *writerWalk) init(r *reader, p dnswire.Prefix) {
	b.w, b.p, b.seeded = r.s.w, p, false
}

// enter moves the walk into source src and looks the block up there.
func (b *writerWalk) enter(src int) error {
	w := b.w
	b.src, b.next = src, 0
	if src == len(w.segs) {
		b.refs, b.f = w.tailBlocks[b.p], w.tailF
		return nil
	}
	g := w.segs[src]
	var err error
	b.refs, err = g.idx.lookup(b.p, b.refBuf)
	if b.refs != nil {
		b.refBuf = b.refs
	}
	b.f = g.f
	return err
}

// seed places the walk at snapshot ls: the block's state there, and the
// cursor behind the last frame at or before it. A tail run may open with
// deltas that continue the last segment, so a seed in the tail may start
// from the held state the sealed history ends in.
func (b *writerWalk) seed(r *reader, ls int) error {
	w := b.w
	b.seeded = true
	if ls < w.tailFirst {
		return b.seedSealed(r, ls)
	}
	if err := b.enter(len(w.segs)); err != nil {
		return err
	}
	b.at = ls
	i := lastRefAtOrBefore(b.refs, ls)
	b.next = i + 1
	if i < 0 {
		b.state.share(w.sealedEnd[b.p])
		return nil
	}
	st, err := r.reconstruct(b.p, b.refs, i, b.f, true)
	b.state.share(st)
	return err
}

// seedSealed is seed for a snapshot of the sealed history (or -1, before
// any). The owning segment alone decides: every block live at a segment's
// start opens with a base inside it, so a block with no frame yet in the
// owning segment is dead.
func (b *writerWalk) seedSealed(r *reader, ls int) error {
	b.at = ls
	if ls < 0 {
		b.src, b.refs, b.next, b.f = -1, nil, 0, nil
		b.state.share(nil)
		return nil
	}
	w := b.w
	if err := b.enter(sort.Search(len(w.segs), func(k int) bool { return w.segs[k].firstSnap > ls }) - 1); err != nil {
		return err
	}
	i := lastRefAtOrBefore(b.refs, ls)
	b.next = i + 1
	if i < 0 {
		b.state.share(nil)
		return nil
	}
	st, err := r.reconstruct(b.p, b.refs, i, b.f, false)
	b.state.share(st)
	return err
}

// How one step changed a walk's state.
const (
	stepNone     = iota // the snapshot left the block alone
	stepPatched         // a delta frame patched the state
	stepReplaced        // a base frame (or a segment's start) replaced it
)

// step advances the walk one snapshot, applying the block's frame
// there if it has one. It reports how the state changed and the state
// before; after stepPatched delta holds the frame's entries. prev and
// delta stay valid until the next step.
func (b *writerWalk) step(r *reader) (how int, prev blockState, delta []deltaEntry, err error) {
	w := b.w
	ls := b.at + 1
	b.at = ls
	prev = b.state.cur
	opened := false
	if b.src < len(w.segs) && (b.src < 0 || ls > w.segs[b.src].lastSnap()) {
		if err := b.enter(b.src + 1); err != nil {
			return 0, nil, nil, err
		}
		// A segment stands alone, for a walk as for a seed: the block
		// starts it dead unless a base says otherwise (compaction writes
		// one for every block live there). The tail, in contrast,
		// continues whatever precedes it.
		opened = b.src < len(w.segs)
	}
	if b.next == len(b.refs) || b.refs[b.next].snap != ls {
		if opened && len(prev) > 0 {
			b.state.replace(nil)
			return stepReplaced, prev, nil, nil
		}
		return stepNone, prev, nil, nil
	}
	ref := b.refs[b.next]
	b.next++
	delta, err = r.apply(&b.state, b.f, ref, b.p)
	if err != nil {
		return 0, nil, nil, err
	}
	if ref.kind == frameBase {
		return stepReplaced, prev, nil, nil
	}
	return stepPatched, prev, delta, nil
}

// to brings the walk to snapshot i (at or after where it stands),
// seeding it there if it has not started, and returns the state.
func (b *writerWalk) to(r *reader, i int) (blockState, error) {
	if !b.seeded {
		if err := b.seed(r, i); err != nil {
			return nil, err
		}
	}
	for b.at < i {
		if _, _, _, err := b.step(r); err != nil {
			return nil, err
		}
	}
	return b.state.cur, nil
}
