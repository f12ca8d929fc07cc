// Package replica implements snapshot-shipping replication for rdnsd: a
// Syncer pulls a primary daemon's replication feed (/v1/repl/*, see
// docs/replication.md) into a local histstore directory that a read-only
// replica daemon serves. Sealed segments are downloaded once — they are
// immutable and content-addressed by their trailer CRCs, so interrupted
// pulls resume by byte offset — and the active tails are pulled as
// incremental deltas from the local file size. Every downloaded file is
// verified (header, frame CRCs, footer index, content address) before
// the new file set is committed with the store's atomic manifest
// protocol, so a truncated or bit-flipped feed response is a loud sync
// error, never a silently wrong replica.
//
// A Syncer only ever appends files and atomically advances the local
// MANIFEST; a crash at any point leaves either the previous committed
// generation (plus unreferenced staged files the next sync resumes or
// supersedes) or the new one. The serving side swaps generations through
// rdnsserve's refcounted store-handle reload, so a catch-up never drops
// an in-flight query.
package replica

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/rdnsclient"
	"rdnsprivacy/internal/telemetry"
)

// DefaultChunk is the default feed fetch size. Small enough to bound one
// request, large enough to amortize round trips.
const DefaultChunk = 1 << 20

// errChanged marks a sync attempt invalidated by a concurrent primary
// mutation (a compaction swapped a tail mid-pull); Sync retries with a
// fresh manifest.
var errChanged = errors.New("replica: primary changed mid-sync")

// changeRetries bounds how many manifest refetches one Sync call absorbs
// before surfacing errChanged to the caller.
const changeRetries = 3

// Config assembles a Syncer.
type Config struct {
	// Source is the primary's base URL (http://host:port).
	Source string
	// Dir is the local store directory the feed is mirrored into; created
	// on the first sync.
	Dir string
	// Client overrides the feed client (tests inject in-process
	// transports); nil builds one from Source.
	Client *rdnsclient.Client
	// Chunk bounds one fetch (default DefaultChunk). Small values
	// exercise resumable range fetches.
	Chunk int
	// Tracer records sync and fetch spans; nil disables tracing. Each
	// Sync call gets a "repl.sync" span whose correlation ID is
	// CorrID(Seed, "repl.sync", n) for the n-th call, with one
	// "repl.fetch" span per file actually pulled under the same ID. A
	// committed sync that changed the file set stamps a "gen" event
	// carrying the serving generation the swap produces — the key
	// obs.Stitch uses to chain a replica-served query back through the
	// feed pull that delivered its data.
	Tracer *telemetry.Tracer
	// Seed feeds span correlation IDs.
	Seed int64
}

// Syncer mirrors one primary's feed into one local store directory.
// Sync calls are serialized; Status is safe concurrently with Sync.
type Syncer struct {
	src    string
	dir    string
	c      *rdnsclient.Client
	chunk  int
	tracer *telemetry.Tracer
	seed   int64

	mu sync.Mutex // serializes Sync
	// syncN numbers Sync calls (the correlation-ID attempt key); applied
	// counts committed syncs that changed the file set. On a replica
	// daemon every changed sync triggers exactly one serving-handle swap
	// (the bootstrap sync opens generation 0 without a reload), so the
	// generation serving a query equals applied-1 at the time of the
	// swap — the invariant the "gen" span events encode.
	syncN   int
	applied int
	// verified caches segment files already validated against their
	// content address, so steady-state syncs stat nothing but tails.
	verified map[string]bool
	// tailOK caches the verified size per tail file, so a caught-up sync
	// skips the frame scan but a fresh process re-proves local bytes it
	// never pulled itself.
	tailOK map[string]int64

	statMu sync.Mutex
	stats  rdnsclient.ReplicaStats
	synced bool // at least one successful sync
}

// New creates a Syncer pulling cfg.Source into cfg.Dir.
func New(cfg Config) (*Syncer, error) {
	if cfg.Dir == "" {
		return nil, errors.New("replica: Dir is required")
	}
	c := cfg.Client
	if c == nil {
		if cfg.Source == "" {
			return nil, errors.New("replica: Source is required")
		}
		c = rdnsclient.New(cfg.Source)
	}
	chunk := cfg.Chunk
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	return &Syncer{
		src:      cfg.Source,
		dir:      cfg.Dir,
		c:        c,
		chunk:    chunk,
		tracer:   cfg.Tracer,
		seed:     cfg.Seed,
		verified: make(map[string]bool),
		tailOK:   make(map[string]int64),
	}, nil
}

// Status reports the replica's lag as of the last sync attempt, or nil
// before the first attempt resolves. The pointer is a copy; callers may
// hold it across syncs.
func (y *Syncer) Status() *rdnsclient.ReplicaStats {
	y.statMu.Lock()
	defer y.statMu.Unlock()
	if y.stats.Syncs == 0 && y.stats.SyncErrors == 0 {
		return nil
	}
	st := y.stats
	return &st
}

// Sync pulls the primary's current file set into the local directory and
// commits it, returning whether anything changed (the caller should swap
// its serving handle onto the new generation when it did). A primary
// mutation mid-pull (compaction swapping a tail) restarts the attempt
// with a fresh manifest, a bounded number of times. Any verification
// failure — truncated files, content-address mismatches, frame
// corruption — is a loud error and leaves the previous committed
// generation untouched.
func (y *Syncer) Sync(ctx context.Context) (bool, error) {
	y.mu.Lock()
	defer y.mu.Unlock()
	y.syncN++
	corr := telemetry.CorrID(y.seed, "repl.sync", y.syncN)
	span := y.tracer.StartSpanCorr("repl.sync", y.src, corr)
	var lastErr error
	for attempt := 0; attempt < changeRetries; attempt++ {
		changed, err := y.syncOnce(ctx, corr)
		if err == nil {
			y.noteSuccess()
			if changed {
				y.applied++
				// The stitch key: the serving generation this sync's
				// handle swap produces (bootstrap opens generation 0).
				span.Event("gen", uint64(y.applied-1))
			}
			span.End()
			return changed, nil
		}
		lastErr = err
		if !errors.Is(err, errChanged) && !rdnsChanged(err) {
			break
		}
		span.Event("retry", uint64(attempt+1))
	}
	y.noteError()
	span.Event("error", 0)
	span.End()
	return false, lastErr
}

// rdnsChanged reports a 409 repl_changed API error.
func rdnsChanged(err error) bool {
	var ae *rdnsclient.APIError
	return errors.As(err, &ae) && ae.Code == rdnsclient.CodeReplChanged
}

// syncOnce is one manifest-to-commit attempt; corr correlates its fetch
// spans with the owning Sync call.
func (y *Syncer) syncOnce(ctx context.Context, corr uint64) (bool, error) {
	m, err := y.c.ReplManifest(ctx)
	if err != nil {
		return false, fmt.Errorf("replica: manifest: %w", err)
	}
	if err := validateManifest(m); err != nil {
		return false, err
	}
	if err := os.MkdirAll(y.dir, 0o755); err != nil {
		return false, fmt.Errorf("replica: %w", err)
	}
	y.noteRemote(m)
	changed := false
	for _, w := range m.Writers {
		for _, g := range w.Segments {
			fetched, err := y.syncSegment(ctx, w.ID, g, corr)
			if err != nil {
				return false, err
			}
			changed = changed || fetched
		}
		fetched, err := y.syncTail(ctx, w, corr)
		if err != nil {
			return false, err
		}
		changed = changed || fetched
	}
	committed, err := y.commit(m)
	if err != nil {
		return false, err
	}
	y.cleanup(m)
	return changed || committed, nil
}

// validateManifest rejects feed-supplied names that could escape the
// store directory, before any of them is joined into a local path. The
// commit-time manifest validation re-checks the same rules, but only
// after the syncer has statted, removed, and renamed files at the joined
// paths — a lying feed (compromised primary, MITM on the plain-HTTP
// transport) must be a loud error before the first filesystem touch.
func validateManifest(m rdnsclient.ReplManifest) error {
	for _, w := range m.Writers {
		if !histstore.ValidWriterID(w.ID) {
			return fmt.Errorf("replica: manifest carries invalid writer id %q", w.ID)
		}
		if !histstore.ValidStoreFileName(w.TailFile) {
			return fmt.Errorf("replica: manifest carries unsafe tail file name %q for writer %s", w.TailFile, w.ID)
		}
		for _, g := range w.Segments {
			if !histstore.ValidStoreFileName(g.File) {
				return fmt.Errorf("replica: manifest carries unsafe segment file name %q for writer %s", g.File, w.ID)
			}
		}
	}
	return nil
}

// syncSegment ensures one sealed segment is present, verified, and
// matching its content address. Partial downloads resume from the staged
// .part file's size.
func (y *Syncer) syncSegment(ctx context.Context, writerID string, g rdnsclient.ReplSegment, corr uint64) (bool, error) {
	final := filepath.Join(y.dir, g.File)
	if y.verified[g.File] {
		return false, nil
	}
	if fi, err := os.Stat(final); err == nil {
		// Present from a previous sync (or process lifetime): verify once
		// against the manifest identity and content address.
		if fi.Size() == g.Size {
			if err := y.verifySegment(final, writerID, g); err == nil {
				y.verified[g.File] = true
				return false, nil
			}
		}
		// Wrong size or failed verification: a segment is immutable, so
		// this is damage — refetch from scratch, loudly if that fails too.
		if err := os.Remove(final); err != nil {
			return false, fmt.Errorf("replica: removing damaged segment %s: %w", final, err)
		}
	}
	part := final + ".part"
	off := int64(0)
	if fi, err := os.Stat(part); err == nil {
		off = fi.Size()
		if off > g.Size {
			// Staged bytes from a different (corrupt or superseded) fetch.
			if err := os.Remove(part); err != nil {
				return false, fmt.Errorf("replica: %w", err)
			}
			off = 0
		}
	}
	f, err := os.OpenFile(part, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return false, fmt.Errorf("replica: %w", err)
	}
	fspan := y.tracer.StartSpanCorr("repl.fetch", g.File, corr)
	fetched := int64(0)
	defer func() {
		fspan.Event("bytes", uint64(fetched))
		fspan.End()
	}()
	for off < g.Size {
		n := y.chunk
		if int64(n) > g.Size-off {
			n = int(g.Size - off)
		}
		data, total, err := y.c.ReplSegment(ctx, g.File, off, n)
		if err != nil {
			f.Close()
			return false, fmt.Errorf("replica: segment %s at %d: %w", g.File, off, err)
		}
		if total != g.Size || len(data) == 0 || int64(len(data)) > g.Size-off {
			f.Close()
			return false, fmt.Errorf("replica: segment %s: feed served %d bytes of %d at offset %d, manifest says %d",
				g.File, len(data), total, off, g.Size)
		}
		if _, err := f.WriteAt(data, off); err != nil {
			f.Close()
			return false, fmt.Errorf("replica: %w", err)
		}
		off += int64(len(data))
		fetched += int64(len(data))
		y.noteFetched(int64(len(data)))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return false, fmt.Errorf("replica: %w", err)
	}
	if err := f.Close(); err != nil {
		return false, fmt.Errorf("replica: %w", err)
	}
	if err := y.verifySegment(part, writerID, g); err != nil {
		os.Remove(part)
		return false, err
	}
	if err := os.Rename(part, final); err != nil {
		return false, fmt.Errorf("replica: %w", err)
	}
	if err := syncDir(y.dir); err != nil {
		return false, err
	}
	y.verified[g.File] = true
	y.noteSegmentDone()
	return true, nil
}

// verifySegment runs the full structural validation plus the manifest's
// content address over a downloaded segment file.
func (y *Syncer) verifySegment(path, writerID string, g rdnsclient.ReplSegment) error {
	size, crc, err := histstore.VerifySegmentFile(path, writerID, g.First, g.Count)
	if err != nil {
		return fmt.Errorf("replica: segment %s failed verification: %w", g.File, err)
	}
	if size != g.Size || crc != g.CRC {
		return fmt.Errorf("replica: segment %s content mismatch: got %d bytes crc %08x, manifest says %d bytes crc %08x",
			g.File, size, crc, g.Size, g.CRC)
	}
	return nil
}

// syncTail pulls the writer's tail delta [localSize, manifest TailSize)
// and verifies the whole committed region. Local bytes are always a
// correct prefix of the primary's committed tail (tail files are
// append-only and never reused), so resuming from the local file size is
// self-healing after a crash mid-pull.
func (y *Syncer) syncTail(ctx context.Context, w rdnsclient.ReplWriter, corr uint64) (bool, error) {
	if w.TailSize <= 0 {
		// Every real tail carries at least its file header; a zero-size
		// tail is a malformed manifest, and committing it would reference
		// a file that never gets pulled.
		return false, fmt.Errorf("replica: tail %s: manifest advertises %d committed bytes", w.TailFile, w.TailSize)
	}
	path := filepath.Join(y.dir, w.TailFile)
	off := int64(0)
	if fi, err := os.Stat(path); err == nil {
		off = fi.Size()
	}
	if off > w.TailSize {
		// A tail never shrinks under one file name; longer local bytes mean
		// the manifest raced a primary restart that rebuilt the store.
		return false, fmt.Errorf("%w: local tail %s has %d bytes, manifest says %d",
			errChanged, w.TailFile, off, w.TailSize)
	}
	if off == w.TailSize {
		if y.tailOK[w.TailFile] == w.TailSize {
			return false, nil
		}
		// Caught up byte-wise, but this process never proved the local
		// bytes (a restart after a crashed pull): verify before trusting.
		if _, err := histstore.VerifyTailFile(path, w.TailFirst, w.TailSize); err != nil {
			os.Remove(path)
			return false, fmt.Errorf("replica: tail %s failed verification: %w", w.TailFile, err)
		}
		y.tailOK[w.TailFile] = w.TailSize
		return false, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return false, fmt.Errorf("replica: %w", err)
	}
	fspan := y.tracer.StartSpanCorr("repl.fetch", w.TailFile, corr)
	fetched := int64(0)
	defer func() {
		fspan.Event("bytes", uint64(fetched))
		fspan.End()
	}()
	for off < w.TailSize {
		n := y.chunk
		if int64(n) > w.TailSize-off {
			n = int(w.TailSize - off)
		}
		data, info, err := y.c.ReplTail(ctx, w.ID, w.TailFile, off, n)
		if err != nil {
			f.Close()
			return false, fmt.Errorf("replica: tail %s at %d: %w", w.TailFile, off, err)
		}
		if len(data) == 0 || int64(len(data)) > w.TailSize-off {
			f.Close()
			return false, fmt.Errorf("replica: tail %s: feed served %d bytes at offset %d of %d (committed %d)",
				w.TailFile, len(data), off, w.TailSize, info.Size)
		}
		if _, err := f.WriteAt(data, off); err != nil {
			f.Close()
			return false, fmt.Errorf("replica: %w", err)
		}
		off += int64(len(data))
		fetched += int64(len(data))
		y.noteFetched(int64(len(data)))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return false, fmt.Errorf("replica: %w", err)
	}
	if err := f.Close(); err != nil {
		return false, fmt.Errorf("replica: %w", err)
	}
	if _, err := histstore.VerifyTailFile(path, w.TailFirst, w.TailSize); err != nil {
		// The local bytes are provably damaged; drop the file so the next
		// sync re-pulls the tail from scratch.
		os.Remove(path)
		return false, fmt.Errorf("replica: tail %s failed verification: %w", w.TailFile, err)
	}
	y.tailOK[w.TailFile] = w.TailSize
	return true, nil
}

// commit atomically advances the local MANIFEST to m's file set when it
// differs from what is already committed.
func (y *Syncer) commit(m rdnsclient.ReplManifest) (bool, error) {
	fm := histstore.FeedManifest{BaseInterval: m.BaseInterval}
	for _, w := range m.Writers {
		fw := histstore.FeedWriter{
			ID:        w.ID,
			FileSeq:   w.FileSeq,
			TailFile:  w.TailFile,
			TailFirst: w.TailFirst,
			TailSize:  w.TailSize,
		}
		for _, g := range w.Segments {
			fw.Segments = append(fw.Segments, histstore.FeedSegment{
				File: g.File, First: g.First, Count: g.Count, Size: g.Size, CRC: g.CRC,
			})
		}
		fm.Writers = append(fm.Writers, fw)
	}
	advanced, err := histstore.WriteFeedManifest(y.dir, fm)
	if err != nil {
		return false, fmt.Errorf("replica: committing manifest: %w", err)
	}
	return advanced, nil
}

// cleanup removes local tail files the committed manifest no longer
// references (compaction superseded them on the primary) and stale
// .part stages for segments that are already final. Failures are
// ignored: leftovers cost disk, not correctness.
func (y *Syncer) cleanup(m rdnsclient.ReplManifest) {
	live := make(map[string]bool)
	for _, w := range m.Writers {
		live[w.TailFile] = true
		for _, g := range w.Segments {
			live[g.File] = true
		}
	}
	entries, err := os.ReadDir(y.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "tail-") && strings.HasSuffix(name, ".log") && !live[name]:
			os.Remove(filepath.Join(y.dir, name))
		case strings.HasSuffix(name, ".part") && live[strings.TrimSuffix(name, ".part")] &&
			y.verified[strings.TrimSuffix(name, ".part")]:
			os.Remove(filepath.Join(y.dir, name))
		}
	}
}

// Status bookkeeping.

func (y *Syncer) noteRemote(m rdnsclient.ReplManifest) {
	localBytes := int64(0)
	for _, w := range m.Writers {
		for _, g := range w.Segments {
			p := filepath.Join(y.dir, g.File)
			if fi, err := os.Stat(p); err == nil {
				localBytes += min(fi.Size(), g.Size)
			} else if fi, err := os.Stat(p + ".part"); err == nil {
				// A staged partial download resumes from its size, so those
				// bytes are local too — without this, a restart mid-segment
				// reports the whole segment behind and the resumed fetch
				// double-decrements through noteFetched.
				localBytes += min(fi.Size(), g.Size)
			}
		}
		if fi, err := os.Stat(filepath.Join(y.dir, w.TailFile)); err == nil {
			localBytes += min(fi.Size(), w.TailSize)
		}
	}
	y.statMu.Lock()
	y.stats.Source = y.src
	y.stats.LastSnap = m.LastSnap
	y.stats.BytesBehind = m.TotalBytes - localBytes
	y.stats.SnapshotsBehind = 0 // refined at success; a failed sync keeps bytes as the signal
	y.statMu.Unlock()
}

func (y *Syncer) noteFetched(n int64) {
	y.statMu.Lock()
	y.stats.BytesFetched += n
	if y.stats.BytesBehind > n {
		y.stats.BytesBehind -= n
	} else {
		y.stats.BytesBehind = 0
	}
	y.statMu.Unlock()
}

func (y *Syncer) noteSegmentDone() {
	y.statMu.Lock()
	y.stats.SegmentsFetched++
	y.statMu.Unlock()
}

func (y *Syncer) noteSuccess() {
	y.statMu.Lock()
	y.stats.Syncs++
	y.stats.BytesBehind = 0
	y.stats.SnapshotsBehind = 0
	y.stats.LastSync = time.Now().UTC()
	y.synced = true
	y.statMu.Unlock()
}

func (y *Syncer) noteError() {
	y.statMu.Lock()
	y.stats.SyncErrors++
	y.statMu.Unlock()
}

// syncDir fsyncs the directory so a just-renamed entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("replica: syncing %s: %w", dir, err)
	}
	return nil
}
