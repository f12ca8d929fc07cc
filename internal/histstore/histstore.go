// Package histstore is the longitudinal PTR history store: an append-only,
// base+delta encoded snapshot log with time-travel queries.
//
// The paper's headline results are longitudinal — tracking Brians across
// daily OpenINTEL/Rapid7 snapshots, the COVID work-from-home shift, the
// "when to stage a heist" case study all query years of reverse-DNS
// history (Sections 5-7), and the danger lives in the archive, not the
// single lookup. This package is that archive as a serving system rather
// than a pile of CSV files: campaigns append each snapshot as it
// completes, and consumers ask for any instant of the past without
// re-reading (or ever having materialized) the whole history.
//
// A store is a directory of append-only files tied together by a small
// manifest (manifest.go):
//
//   - Each writer — a campaign or vantage point, identified by a short id
//     — appends snapshots to its own tail log. A session-held advisory
//     lock makes a second appender on the same writer fail loudly with
//     ErrWriterActive instead of interleaving frames.
//   - Compaction (compact.go) seals a tail's accumulated snapshots into
//     an immutable segment: old delta runs are rewritten against fresh
//     bases on a sparser cadence, redundant rebases are dropped, and the
//     swap is crash-atomic (staged files, then one manifest rename).
//     Query answers are bit-identical before, during, and after.
//   - A tiering policy keeps only recently-used segments' indexes hot;
//     older segments reload lazily from their footers and are LRU-evicted
//     (segment.go, the hist_tier_* metrics).
//
// Within a file the log stores a full per-/24 base block every K
// snapshots and compact change deltas in between, varint+prefix-
// compressed with CRC framing (see codec.go for the wire layout). Two
// in-memory indexes ride on top: a per-/24 block index (prefix -> frame
// refs per snapshot) and an inverted hostname-token index (token ->
// (/24, interval) postings). Every read is a forward block walk
// (walk.go): any snapshot of any block is seeded in O(deltas since the
// nearest base), optionally through a sharded LRU reconstruction cache,
// and a window then costs one frame decode per frame inside it.
//
//	st, _ := histstore.Open(dir, histstore.WithCache(4096))
//	defer st.Close()
//	st.AppendBlocks(day1, snapshot1.Blocks)         // a sweep's packed form
//	name, ok, _ := st.At(ip, day1)                  // time travel
//	rows, _ := st.Range(prefix, day1, day30)        // every observation
//	churn, _ := st.Churn(prefix, day1, day30)       // join/leave counts
//	postings := st.FindName("brian")                // the inverted index
//
// When several writers share a store their histories merge at read time:
// the global timeline is the (time, writer id)-ordered merge of every
// writer's snapshots, and conflicting claims on an address resolve to
// the writer with the smallest id. AtWriter exposes the provenance.
//
// Reopening a store replays the files through the same transition code
// the writer used — a single writer's sealed segments are verified and
// their name sidecars joined instead (adoptSealed), only its tail
// replayed — so the rebuilt indexes, and therefore every query answer,
// are bit-identical across a close/reopen cycle. Concurrent
// readers and one appender within a process are safe (cmd/rdnsd serves
// queries mid-append and mid-compaction).
package histstore

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/telemetry"
)

// Errors returned by the store.
var (
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("histstore: store is closed")
	// ErrOutOfOrder reports an append whose instant does not follow the
	// store's newest snapshot.
	ErrOutOfOrder = errors.New("histstore: append out of order")
	// ErrBeforeHistory reports a point query earlier than the first
	// snapshot.
	ErrBeforeHistory = errors.New("histstore: instant precedes history")
	// ErrReadOnly reports an append through a store opened WithReadOnly.
	ErrReadOnly = errors.New("histstore: store is read-only")
	// ErrNoStore reports a read-only open of a directory holding no
	// manifest.
	ErrNoStore = errors.New("histstore: no store at path")
)

// DefaultBaseInterval is the default base-block cadence K: a block's
// delta chain is compacted into a fresh base once it spans K snapshots.
const DefaultBaseInterval = 7

// DefaultWriter is the writer identity used when none is configured.
const DefaultWriter = "main"

// DefaultHotSegments is the default hot-tier capacity: how many sealed
// segments keep their index and file descriptor resident.
const DefaultHotSegments = 8

// openRetries bounds the reopen attempts when a concurrent compaction
// deletes a file between our manifest read and opening it.
const openRetries = 3

// blockRef locates one block frame in a tail or segment file. snap is
// writer-local.
type blockRef struct {
	snap   int
	kind   byte
	off    int64
	length int
}

// writerState is one writer's replayed view: its sealed segments, its
// active tail, and its private current state. Writer-local snapshot
// indexes run 0..len(times)-1 across segments then tail; globalIdx maps
// each to its slot in the store's merged timeline.
type writerState struct {
	id      string
	idx     int // index in Store.writers (ascending id = merge priority)
	fileSeq int
	owned   bool
	lock    *os.File // session tail lock (owned writers only)

	segs []*segment

	tailFile      string
	tailF         *os.File
	tailFirst     int // local snapshot index of the tail's first snapshot
	tailHeaderLen int64
	tailSize      int64
	tailBlocks    map[dnswire.Prefix][]blockRef
	tornAt        int64 // torn-tail boundary found at replay, -1 if none

	known blockList // every /24 the writer has ever recorded
	times []time.Time
	// globalIdx maps local snapshot index -> global snapshot index.
	globalIdx []int
	cur       map[dnswire.Prefix]blockState
	// sealedEnd holds the writer's live block states at local snapshot
	// tailFirst-1, where its sealed history ends: what its tail continues
	// from and the next compaction starts from. Open establishes it
	// (adoptSealed, or replay as it crosses into the tail) and each
	// compaction commit replaces it with the states its sealing pass ends
	// in; nil before the writer's first seal. The states are shared, never
	// modified.
	sealedEnd map[dnswire.Prefix]blockState
	// cadence drives the per-block rebase schedule of the writer's appends
	// (writer-local snapshot indexes).
	cadence cadence
	scratch appendScratch // owned writers only
}

// Store is the history store. Open creates or loads one; methods are safe
// for concurrent use (many readers, one appender, a compactor).
type Store struct {
	dir       string
	baseEvery int
	syncEach  bool
	readOnly  bool
	writerID  string
	hotCap    int
	cache     *blockCache
	met       *storeMetrics
	tier      *tier

	mu     sync.RWMutex
	closed bool
	// sessionLock carries the owned writer's tail lock between
	// registration and writer-state construction (then moves to
	// self.lock).
	sessionLock *os.File
	// writers is sorted by id ascending; solo is the single-writer fast
	// path where writers[0].cur aliases cur and local indexes equal
	// global ones.
	writers []*writerState
	self    *writerState // the owned writer; nil when read-only
	solo    bool

	// The merged global view.
	times      []time.Time
	snapWriter []int     // global snapshot -> writer index
	snapLocal  []int     // global snapshot -> writer-local snapshot index
	blocks     blockList // every /24 any writer has ever recorded
	cur        map[dnswire.Prefix]blockState
	names      *nameIndex

	baseFrames  int
	deltaFrames int
	bytes       int64

	compactRunning  atomic.Bool
	compactions     atomic.Uint64
	compactSealed   atomic.Uint64
	compactReclaim  atomic.Int64
	reconstructions atomic.Uint64
	tierLoads       atomic.Uint64
	tierEvictions   atomic.Uint64
}

// Option tunes a Store at Open.
type Option func(*Store)

// WithBaseInterval sets the base-block cadence K (default
// DefaultBaseInterval). When the store already exists its manifest wins:
// the interval is a property of the store, not of the opener.
func WithBaseInterval(k int) Option {
	return func(s *Store) {
		if k > 0 {
			s.baseEvery = k
		}
	}
}

// WithCache enables the sharded LRU reconstruction cache, bounded to
// roughly n block states. Zero (the default) disables it; every query
// then reconstructs from the log.
func WithCache(n int) Option {
	return func(s *Store) { s.cache = newBlockCache(n) }
}

// WithTelemetry attaches a metrics sink (the hist_* instruments; see
// docs/storage.md). Nil keeps the store on its zero-overhead path.
func WithTelemetry(sink telemetry.Sink) Option {
	return func(s *Store) { s.met = newStoreMetrics(sink) }
}

// WithSync fsyncs the tail after every append. Off by default; Close
// always syncs.
func WithSync() Option {
	return func(s *Store) { s.syncEach = true }
}

// WithWriter sets the writer identity this Store appends as (default
// DefaultWriter). Ids are 1..64 bytes of [a-z0-9_-]; each campaign or
// vantage point appending to a shared store picks its own.
func WithWriter(id string) Option {
	return func(s *Store) { s.writerID = id }
}

// WithReadOnly opens the store for queries only: no writer is registered
// or locked, no files are created or truncated, and Append returns
// ErrReadOnly. This is how rdnsd serves a store a campaign is appending
// to from another process.
func WithReadOnly() Option {
	return func(s *Store) { s.readOnly = true }
}

// WithHotSegments bounds the hot tier to n resident segment indexes
// (default DefaultHotSegments); colder segments reload lazily and are
// LRU-evicted. Zero or negative means unbounded.
func WithHotSegments(n int) Option {
	return func(s *Store) { s.hotCap = n }
}

// Open creates or loads the history store rooted at the directory path.
// Existing files rebuild the indexes (replayed, or for a single writer's
// sealed segments verified and joined from their sidecars); a torn final
// append (crash mid-write) on an owned tail is truncated away, while
// mid-file corruption — anywhere in a sealed segment, or before the
// final append of a tail — is a loud error.
func Open(path string, opts ...Option) (*Store, error) {
	var lastErr error
	for attempt := 0; attempt < openRetries; attempt++ {
		s, err := openStore(path, opts, false)
		if err == nil {
			return s, nil
		}
		lastErr = err
		// A concurrent compaction can delete a tail between our manifest
		// read and opening it; the fresh manifest resolves the race.
		var r *retryableOpenError
		if !errors.As(err, &r) {
			return nil, err
		}
	}
	return nil, lastErr
}

// retryableOpenError marks an open failure caused by racing a concurrent
// store mutation; Open retries with a fresh manifest read.
type retryableOpenError struct{ err error }

func (e *retryableOpenError) Error() string { return e.err.Error() }
func (e *retryableOpenError) Unwrap() error { return e.err }

// openStore is one open attempt. A single-writer store adopts its sealed
// segments (adoptSealed) and replays only its tail, unless replayAll asks
// for every frame to be replayed, the way a multi-writer store always is.
func openStore(path string, opts []Option, replayAll bool) (s *Store, err error) {
	s = &Store{
		dir:       path,
		baseEvery: DefaultBaseInterval,
		writerID:  DefaultWriter,
		hotCap:    DefaultHotSegments,
		cur:       make(map[dnswire.Prefix]blockState),
		names:     newNameIndex(),
	}
	for _, o := range opts {
		o(s)
	}
	if s.met == nil {
		s.met = newStoreMetrics(nil)
	}
	s.tier = newTier(s.hotCap)
	if !s.readOnly && !validWriterID(s.writerID) {
		return nil, fmt.Errorf("histstore: invalid writer id %q", s.writerID)
	}
	if err := checkStoreDir(path); err != nil {
		return nil, err
	}
	st := s // the named return is nil on error paths; close via the local
	defer func() {
		if err != nil {
			st.closeFiles()
		}
	}()

	var m *storeManifest
	if s.readOnly {
		if m, err = readManifest(path); err != nil {
			return nil, err
		}
		if m == nil {
			return nil, fmt.Errorf("%w: %s has no manifest", ErrNoStore, path)
		}
	} else {
		if err := os.MkdirAll(path, 0o755); err != nil {
			return nil, fmt.Errorf("histstore: %w", err)
		}
		if m, err = s.registerWriter(); err != nil {
			return nil, err
		}
	}
	s.baseEvery = m.baseEvery

	if err := s.loadWriters(m); err != nil {
		return nil, err
	}
	adopt := s.solo && !replayAll
	if adopt {
		if err := s.adoptSealed(s.writers[0]); err != nil {
			return nil, err
		}
	}
	if err := s.replay(adopt); err != nil {
		return nil, err
	}
	s.publishGauges()
	return s, nil
}

// checkStoreDir rejects paths that exist but are not directories —
// including the pre-segmentation single-file log format, which gets a
// pointed message.
func checkStoreDir(path string) error {
	fi, err := os.Stat(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("histstore: %w", err)
	}
	if fi.IsDir() {
		return nil
	}
	var magic [8]byte
	if f, err := os.Open(path); err == nil {
		io.ReadFull(f, magic[:])
		f.Close()
	}
	if magic == fileMagic {
		return fmt.Errorf("histstore: %s is a legacy single-file history log; the store format is now a directory (re-append the campaign to migrate)", path)
	}
	return fmt.Errorf("histstore: %s is not a store directory", path)
}

// registerWriter takes the session lock on this store's writer, ensures
// the writer exists in the manifest (creating the store on first open),
// and sweeps any files a crashed protocol left behind for this writer.
// It returns the manifest to load from.
func (s *Store) registerWriter() (*storeManifest, error) {
	lockPath := filepath.Join(s.dir, "tail-"+s.writerID+".lock")
	lock, err := acquireFileLock(lockPath)
	if err != nil {
		return nil, err
	}
	storeLock, err := acquireFileLockBlocking(filepath.Join(s.dir, storeLockName))
	if err != nil {
		releaseFileLock(lock)
		return nil, err
	}
	defer releaseFileLock(storeLock)

	m, err := readManifest(s.dir)
	if err != nil {
		releaseFileLock(lock)
		return nil, err
	}
	if m == nil {
		m = &storeManifest{baseEvery: s.baseEvery}
	}
	if m.findWriter(s.writerID) < 0 {
		// Create the tail before the manifest references it, so a reader
		// never sees a dangling entry; the manifest write is the commit.
		w := manifestWriter{id: s.writerID, fileSeq: 1, tailFile: tailFileName(s.writerID, 0)}
		if err := writeFileSync(filepath.Join(s.dir, w.tailFile), encodeTailHeader(0)); err != nil {
			releaseFileLock(lock)
			return nil, err
		}
		m.setWriter(w)
		if err := writeManifest(s.dir, m, ""); err != nil {
			releaseFileLock(lock)
			return nil, err
		}
	}
	s.sweepOrphans(m)
	s.sessionLock = lock
	return m, nil
}

// sweepOrphans removes files a crashed compaction or registration left
// staged for this store's writer: unreferenced tails, segments and
// segment sidecars, staged or not, and manifest temp files. Callers hold
// STORE.lock. Errors are ignored — a sweep that loses a race with another
// opener is harmless.
func (s *Store) sweepOrphans(m *storeManifest) {
	referenced := make(map[string]bool)
	if i := m.findWriter(s.writerID); i >= 0 {
		w := m.writers[i]
		referenced[w.tailFile] = true
		for _, g := range w.segs {
			referenced[g.file] = true
			referenced[SidecarName(g.file)] = true
		}
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	tailPrefix := "tail-" + s.writerID + "-"
	segPrefix := "seg-" + s.writerID + "-"
	for _, e := range entries {
		name := e.Name()
		if name == manifestName+".tmp" {
			os.Remove(filepath.Join(s.dir, name))
			continue
		}
		if !strings.HasPrefix(name, tailPrefix) && !strings.HasPrefix(name, segPrefix) {
			continue
		}
		if referenced[name] {
			continue
		}
		os.Remove(filepath.Join(s.dir, name))
	}
}

// tailFileName and segFileName derive a writer's file names from its
// monotonic fileSeq counter.
func tailFileName(id string, seq int) string { return fmt.Sprintf("tail-%s-%d.log", id, seq) }
func segFileName(id string, seq int) string  { return fmt.Sprintf("seg-%s-%d.seg", id, seq) }

// loadWriters opens every writer's files per the manifest and builds the
// (not yet replayed) writer states.
func (s *Store) loadWriters(m *storeManifest) error {
	for wi := range m.writers {
		mw := m.writers[wi]
		w := &writerState{
			id:         mw.id,
			idx:        wi,
			fileSeq:    mw.fileSeq,
			tailFile:   mw.tailFile,
			tailFirst:  mw.tailFirst,
			tornAt:     -1,
			tailBlocks: make(map[dnswire.Prefix][]blockRef),
			cur:        make(map[dnswire.Prefix]blockState),
			cadence:    make(cadence),
		}
		for _, g := range mw.segs {
			w.segs = append(w.segs, &segment{
				path:      s.filePath(g.file),
				writerID:  mw.id,
				firstSnap: g.first,
				count:     g.count,
			})
		}
		flags := os.O_RDONLY
		if !s.readOnly && mw.id == s.writerID {
			w.owned = true
			w.lock = s.sessionLock
			s.sessionLock = nil
			s.self = w
			flags = os.O_RDWR
		}
		f, err := os.OpenFile(s.filePath(mw.tailFile), flags, 0)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return &retryableOpenError{fmt.Errorf("histstore: %w", err)}
			}
			return fmt.Errorf("histstore: %w", err)
		}
		w.tailF = f
		s.writers = append(s.writers, w)
	}
	s.solo = len(s.writers) == 1
	// Only a single writer's index is its own, per segment: the merged
	// view of several is not a union of theirs, so they keep no sidecars.
	s.names.track = s.solo
	if s.solo {
		// Single writer: the merged view IS the writer's view. Aliasing
		// the maps keeps the single-writer hot path at one state
		// transition per frame.
		s.writers[0].cur = s.cur
	}
	return nil
}

// closeFiles releases every file handle and lock (cleanup for failed
// opens and for Close).
func (s *Store) closeFiles() {
	for _, w := range s.writers {
		if w.tailF != nil {
			w.tailF.Close()
			w.tailF = nil
		}
		for _, g := range w.segs {
			g.mu.Lock()
			g.unload()
			g.mu.Unlock()
		}
		releaseFileLock(w.lock)
		w.lock = nil
	}
	releaseFileLock(s.sessionLock)
	s.sessionLock = nil
}

// Close syncs and closes every file. Further operations return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	var err error
	if s.self != nil && s.self.tailF != nil {
		err = s.self.tailF.Sync()
	}
	s.closeFiles()
	s.closed = true
	return err
}

// appendUvarintByte is binary.AppendUvarint without the import clash in
// this file's hot path helpers.
func appendUvarintByte(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// readUvarint reads a uvarint and how many bytes it took.
func readUvarint(r io.ByteReader) (uint64, int, error) {
	var v uint64
	var shift uint
	for i := 0; i < 10; i++ {
		b, err := r.ReadByte()
		if err != nil {
			return 0, 0, err
		}
		if b < 0x80 {
			return v | uint64(b)<<shift, i + 1, nil
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, 0, corruptError("uvarint overflow")
}

// setState installs a block's new state in a live map, dropping the
// entry once the block is empty.
func setState(cur map[dnswire.Prefix]blockState, p dnswire.Prefix, st blockState) {
	if len(st) == 0 {
		delete(cur, p)
	} else {
		cur[p] = st
	}
}

// applyFrame folds one frame of writer w — block p at global snapshot gi
// became wState through wChanges — into the writer's live state, the
// merged view and the name index. It is the transition inside commitGroup,
// which Append and replay both run: what makes reopen bit-identical.
func (s *Store) applyFrame(w *writerState, gi int, p dnswire.Prefix, wChanges []deltaEntry, wState blockState) {
	changes := wChanges
	if s.solo {
		// writers[0].cur aliases s.cur: one transition covers both.
		setState(s.cur, p, wState)
	} else {
		setState(w.cur, p, wState)
		states := make([]blockState, len(s.writers))
		for i, o := range s.writers {
			states[i] = o.cur[p]
		}
		merged := mergeStates(nil, states)
		changes = diffBlock(nil, s.cur[p], merged)
		setState(s.cur, p, merged)
	}
	s.names.apply(changes, p, gi)
}

// Times returns the merged snapshot instants in timeline order.
func (s *Store) Times() []time.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]time.Time(nil), s.times...)
}

// Len returns the number of snapshots in the merged timeline.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.times)
}

// BaseInterval returns the store's base-block cadence K.
func (s *Store) BaseInterval() int { return s.baseEvery }

// WriterID returns the writer identity this store appends as ("" for a
// read-only store).
func (s *Store) WriterID() string {
	if s.readOnly {
		return ""
	}
	return s.writerID
}

// Writers lists the store's writer identities in merge-priority order.
func (s *Store) Writers() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.writers))
	for i, w := range s.writers {
		out[i] = w.id
	}
	return out
}

// Resolve maps an instant to the newest snapshot at or before it — the
// snapshot a point query answers from. ok is false before history.
func (s *Store) Resolve(t time.Time) (time.Time, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i, ok := s.snapAtOrBefore(t)
	if !ok {
		return time.Time{}, false
	}
	return s.times[i], true
}

// snapAtOrBefore finds the newest snapshot index at or before t. Callers
// hold the lock.
func (s *Store) snapAtOrBefore(t time.Time) (int, bool) {
	n := sort.Search(len(s.times), func(i int) bool { return s.times[i].After(t) })
	if n == 0 {
		return 0, false
	}
	return n - 1, true
}

// publishGauges refreshes the gauge instruments; callers hold at least a
// read view of the fields they publish.
func (s *Store) publishGauges() {
	m := s.met
	m.snapshots.Set(int64(len(s.times)))
	m.blocks.Set(int64(len(s.blocks)))
	m.bytes.Set(s.bytes)
	m.cacheEntries.Set(int64(s.cache.len()))
	segs, sealed := 0, int64(0)
	for _, w := range s.writers {
		segs += len(w.segs)
		for _, g := range w.segs {
			sealed += g.size
		}
	}
	m.segments.Set(int64(segs))
	m.sealedBytes.Set(sealed)
	m.tierHot.Set(int64(s.tier.len()))
}
