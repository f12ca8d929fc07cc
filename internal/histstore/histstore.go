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
// A store is one observer's archive: a directory of append-only files,
// written by exactly one writer — a campaign or vantage point, identified
// by a short id — and tied together by a small manifest (manifest.go):
//
//   - The writer appends snapshots to its tail log. A session-held
//     advisory lock makes a second appender fail loudly with
//     ErrWriterActive instead of interleaving frames; a writable open
//     under another writer id fails with a *WriterError. The paper's
//     observers are separate archives, so several observers keep
//     several stores, read side by side (internal/vantage).
//   - Compaction (compact.go) seals a tail's accumulated snapshots into
//     an immutable segment: old delta runs are rewritten against fresh
//     bases on a sparser cadence, redundant rebases are dropped, and the
//     swap is crash-atomic (staged files, then one manifest rename).
//     Query answers are bit-identical before, during, and after.
//   - Every sealed segment's index is validated once, when Open or
//     compaction builds it, and the segment keeps it and its open file
//     for the handle's life (segment.go): a handle holds one file per
//     segment plus its tail's.
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
// Reopening a store verifies its sealed segments and joins their name
// sidecars (adoptSealed), then replays its tail through the same
// transition code the writer used, so the rebuilt indexes, and therefore
// every query answer, are bit-identical across a close/reopen cycle.
// Concurrent readers and one appender within a process are safe
// (cmd/rdnsd serves queries mid-append and mid-compaction).
package histstore

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
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
	// ErrReadOnly reports an append or a compaction through a store
	// opened WithReadOnly.
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

// DefaultHotSegments is kept for bench/, which passes it to
// WithHotSegments. Every sealed segment keeps its file open.
const DefaultHotSegments = 8

// openRetries bounds the reopen attempts when a concurrent compaction
// deletes a file between our manifest read and opening it.
const openRetries = 3

// blockRef locates one block frame in a tail or segment file.
type blockRef struct {
	snap   int
	kind   byte
	off    int64
	length int
}

// writerState is the store's writer: its sealed segments, its active
// tail, and what its appends and compactions carry from one to the next.
// Snapshot indexes run 0..len(Store.times)-1 across segments then tail.
type writerState struct {
	id      string
	fileSeq int
	lock    *os.File // session tail lock (writable stores only)

	segs []*segment

	tailFile      string
	tailF         *os.File
	tailFirst     int // local snapshot index of the tail's first snapshot
	tailHeaderLen int64
	tailSize      int64
	tailBlocks    map[dnswire.Prefix][]blockRef
	tornAt        int64 // torn-tail boundary found at replay, -1 if none

	// sealedEnd holds the writer's live block states at snapshot
	// tailFirst-1, where its sealed history ends: what its tail continues
	// from and the next compaction starts from. Open establishes it
	// (adoptSealed, or replay as it crosses into the tail) and each
	// compaction commit replaces it with the states its sealing pass ends
	// in; nil before the writer's first seal. The states are shared, never
	// modified.
	sealedEnd map[dnswire.Prefix]blockState
	// cadence drives the per-block rebase schedule of the writer's appends.
	cadence cadence
	scratch appendScratch // writable stores only
}

// Store is the history store. Open creates or loads one; methods are safe
// for concurrent use (many readers, one appender, a compactor).
type Store struct {
	dir       string
	baseEvery int
	syncEach  bool
	readOnly  bool
	writerID  string
	cache     *blockCache
	sink      telemetry.Sink

	mu     sync.RWMutex
	closed bool
	w      *writerState // nil only while Open has yet to load it

	times  []time.Time
	blocks blockList // every /24 the writer has ever recorded
	cur    map[dnswire.Prefix]blockState
	names  *nameIndex

	baseFrames  int
	deltaFrames int
	bytes       int64

	compactRunning  atomic.Bool
	compactions     atomic.Uint64
	compactSealed   atomic.Uint64
	compactReclaim  atomic.Int64
	compactGained   atomic.Uint64 // the positive reclaims alone
	reconstructions atomic.Uint64
	// What this handle's appends wrote: facts no Stats field keeps, since
	// Stats describes the store, not one handle's writes.
	appends, appendBytes, wroteBases, wroteDeltas atomic.Uint64
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

// WithTelemetry registers the hist_* views of the opened store on sink
// (see docs/storage.md), replacing those of a store opened on it before.
// They read the store's own counts when the sink is snapshotted, so the
// store's paths write no instrument.
func WithTelemetry(sink telemetry.Sink) Option {
	return func(s *Store) { s.sink = sink }
}

// WithSync fsyncs the tail after every append. Off by default; Close
// always syncs.
func WithSync() Option {
	return func(s *Store) { s.syncEach = true }
}

// WithWriter names the store's writer: the identity a store created by
// this Open appends as (default DefaultWriter). Ids are 1..64 bytes of
// [a-z0-9_-]. When the store already exists its manifest wins, as with
// WithBaseInterval: without WithWriter the Store appends as the writer it
// names, and a writable Open naming another is refused with a
// *WriterError — a store holds one writer.
func WithWriter(id string) Option {
	return func(s *Store) { s.writerID = id }
}

// WithReadOnly opens the store for queries only: no writer is registered
// or locked, no file is created, truncated or written, and Append and
// Compact return ErrReadOnly. This is how rdnsd serves a store a campaign
// is appending to, and compacting, from another process.
func WithReadOnly() Option {
	return func(s *Store) { s.readOnly = true }
}

// WithHotSegments sets nothing: it is kept for bench/, which passes it.
// Every sealed segment keeps its file open until Close.
func WithHotSegments(int) Option { return func(*Store) {} }

// Open creates or loads the history store rooted at the directory path.
// Existing files rebuild the indexes (sealed segments verified and joined
// from their sidecars, the tail replayed); a torn final
// append (crash mid-write) on the writer's tail is truncated away, while
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

// openStore is one open attempt. The store adopts its sealed segments
// (adoptSealed) and replays only its tail, unless replayAll asks for
// every frame to be replayed — the reference the adoption is tested
// against.
func openStore(path string, opts []Option, replayAll bool) (s *Store, err error) {
	s = &Store{
		dir:       path,
		baseEvery: DefaultBaseInterval,
		cur:       make(map[dnswire.Prefix]blockState),
		names:     newNameIndex(),
	}
	for _, o := range opts {
		o(s)
	}
	if !s.readOnly && s.writerID != "" && !validWriterID(s.writerID) {
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
	var lock *os.File
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
		if m, lock, err = s.registerWriter(); err != nil {
			return nil, err
		}
	}
	s.baseEvery = m.baseEvery

	if err := s.loadWriter(m.writer, lock); err != nil {
		return nil, err
	}
	if !replayAll {
		if err := s.adoptSealed(); err != nil {
			return nil, err
		}
	}
	if err := s.replay(!replayAll); err != nil {
		return nil, err
	}
	s.publish()
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

// registerWriter takes the session lock on the store's writer, creating
// the store on first open, and sweeps any files a crashed protocol left
// behind. It returns the manifest to load from and the lock.
func (s *Store) registerWriter() (*storeManifest, *os.File, error) {
	// Refuse another writer's store before locking or creating anything
	// in it.
	m, err := readManifest(s.dir)
	if err != nil {
		return nil, nil, err
	}
	if err := s.claim(m); err != nil {
		return nil, nil, err
	}
	lock, err := acquireFileLock(filepath.Join(s.dir, "tail-"+s.writerID+".lock"))
	if err != nil {
		return nil, nil, err
	}
	m, err = s.registerLocked()
	if err != nil {
		releaseFileLock(lock)
		return nil, nil, err
	}
	return m, lock, nil
}

// registerLocked is registerWriter's manifest read-modify-write, under
// STORE.lock: a store created meanwhile is claimed again, and a missing
// one is created — its tail first, so a reader never sees a dangling
// entry, then the manifest, which is the commit.
func (s *Store) registerLocked() (*storeManifest, error) {
	storeLock, err := acquireFileLockBlocking(filepath.Join(s.dir, storeLockName))
	if err != nil {
		return nil, err
	}
	defer releaseFileLock(storeLock)
	m, err := readManifest(s.dir)
	if err != nil {
		return nil, err
	}
	if m != nil {
		if err := s.claim(m); err != nil {
			return nil, err
		}
	} else {
		m = &storeManifest{baseEvery: s.baseEvery, writer: manifestWriter{id: s.writerID, fileSeq: 1, tailFile: tailFileName(s.writerID, 0)}}
		if err := writeFileSync(filepath.Join(s.dir, m.writer.tailFile), encodeTailHeader(0)); err != nil {
			return nil, err
		}
		if err := writeManifest(s.dir, m, ""); err != nil {
			return nil, err
		}
	}
	s.sweepOrphans(m.writer)
	return m, nil
}

// claim settles the writer id this Store appends as against m, the
// store's manifest (nil before the store exists): the writer m names,
// which WithWriter, when given, must match.
func (s *Store) claim(m *storeManifest) error {
	switch {
	case m == nil && s.writerID == "":
		s.writerID = DefaultWriter
	case m == nil:
	case s.writerID == "" || s.writerID == m.writer.id:
		s.writerID = m.writer.id
	default:
		return &WriterError{Writer: m.writer.id, Refused: s.writerID}
	}
	return nil
}

// WriterError reports a second writer where a store holds exactly one: a
// writable Open under another writer id, or a manifest or replication
// feed listing other than one writer. Writer is the writer the store has
// (in a manifest or feed, the first listed; "" when it lists none),
// Refused the one turned away (the second listed).
type WriterError struct {
	Writer, Refused string
}

func (e *WriterError) Error() string {
	if e.Writer == "" {
		return "histstore: no writer named; a store holds exactly one"
	}
	return fmt.Sprintf("histstore: the store's writer is %q; refusing %q (a store holds exactly one writer)", e.Writer, e.Refused)
}

// sweepOrphans removes files a crashed compaction or registration left
// staged for the store's writer w: unreferenced tails, segments and
// segment sidecars, staged or not, and manifest temp files. Callers hold
// STORE.lock. Errors are ignored — a sweep that loses a race with another
// opener is harmless.
func (s *Store) sweepOrphans(w manifestWriter) {
	referenced := map[string]bool{w.tailFile: true}
	for _, g := range w.segs {
		referenced[g.file] = true
		referenced[SidecarName(g.file)] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	tailPrefix := "tail-" + w.id + "-"
	segPrefix := "seg-" + w.id + "-"
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

// loadWriter opens the writer's files per its manifest entry mw and
// builds its (not yet replayed) state. lock is the session tail lock of a
// writable open, nil for a read-only one.
func (s *Store) loadWriter(mw manifestWriter, lock *os.File) error {
	w := &writerState{
		id:         mw.id,
		fileSeq:    mw.fileSeq,
		lock:       lock,
		tailFile:   mw.tailFile,
		tailFirst:  mw.tailFirst,
		tornAt:     -1,
		tailBlocks: make(map[dnswire.Prefix][]blockRef),
		cadence:    make(cadence),
	}
	s.w = w // from here closeFiles releases the lock
	for _, g := range mw.segs {
		w.segs = append(w.segs, &segment{
			path:      s.filePath(g.file),
			writerID:  mw.id,
			firstSnap: g.first,
			count:     g.count,
		})
	}
	flags := os.O_RDWR
	if s.readOnly {
		flags = os.O_RDONLY
	}
	f, err := os.OpenFile(s.filePath(mw.tailFile), flags, 0)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return &retryableOpenError{fmt.Errorf("histstore: %w", err)}
		}
		return fmt.Errorf("histstore: %w", err)
	}
	w.tailF = f
	return nil
}

// closeFiles releases every file handle and lock (cleanup for failed
// opens and for Close).
func (s *Store) closeFiles() {
	w := s.w
	if w == nil {
		return
	}
	if w.tailF != nil {
		w.tailF.Close()
		w.tailF = nil
	}
	for _, g := range w.segs {
		if g.f != nil {
			g.f.Close()
			g.f = nil
		}
	}
	releaseFileLock(w.lock)
	w.lock = nil
}

// Close syncs and closes every file. Further operations return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	var err error
	if !s.readOnly && s.w.tailF != nil {
		err = s.w.tailF.Sync()
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

// Times returns the snapshot instants in timeline order.
func (s *Store) Times() []time.Time {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]time.Time(nil), s.times...)
}

// Span returns the first and the last snapshot instant, ok false for an
// empty timeline: Times' two ends, without copying the rest.
func (s *Store) Span() (first, last time.Time, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.times) == 0 {
		return first, last, false
	}
	return s.times[0], s.times[len(s.times)-1], true
}

// Len returns the number of snapshots in the timeline.
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
	return s.w.id
}

// Blocks lists every /24 the store indexes, sorted by address.
func (s *Store) Blocks() []dnswire.Prefix {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.blocks)
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
