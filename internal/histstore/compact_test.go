package histstore

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/testutil"
)

// assertCleanDir checks that every file in the store directory is either
// store metadata or referenced by the manifest — no leaked temp files or
// orphaned tails/segments survive a recovery. A referenced segment's
// sidecar counts as referenced.
func assertCleanDir(t *testing.T, dir string) {
	t.Helper()
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("store has no manifest")
	}
	w := m.writer
	referenced := map[string]bool{manifestName: true, storeLockName: true, w.tailFile: true, "tail-" + w.id + ".lock": true}
	for _, g := range w.segs {
		referenced[g.file] = true
		referenced[SidecarName(g.file)] = true
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !referenced[e.Name()] {
			t.Errorf("unreferenced file %s left in store", e.Name())
		}
	}
}

// TestCompactionQueryEquivalence is the tentpole property: a 50-day
// campaign answers all four query APIs bit-identically to the raw
// snapshots before compaction, after compaction, after appending past a
// compacted prefix, after a second compaction, and after a close/reopen
// of the compacted layout — and the reopened stats match the stayed-open
// ones exactly.
func TestCompactionQueryEquivalence(t *testing.T) {
	ctx := context.Background()
	c := genCampaign(31, 50)
	path := filepath.Join(t.TempDir(), "hist")
	st, err := Open(path, WithBaseInterval(5), WithCache(128))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := st.Append(c.times[i], c.snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	pre := *c
	pre.times, pre.snaps = c.times[:30], c.snaps[:30]
	verifyStore(t, st, &pre, splitmix(1))

	res, err := st.CompactWriter(ctx, DefaultWriter, CompactOptions{})
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if res.Skipped != "" || res.Sealed != 30 {
		t.Fatalf("compact result: %+v", res)
	}
	verifyStore(t, st, &pre, splitmix(2))
	stats := st.Stats()
	if stats.Segments != 1 || stats.Compaction.Runs != 1 || stats.Compaction.SealedSnapshots != 30 {
		t.Fatalf("post-compaction stats: %+v", stats)
	}

	// The tail restarts after the cut; appends continue seamlessly.
	for i := 30; i < 50; i++ {
		if err := st.Append(c.times[i], c.snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	verifyStore(t, st, c, splitmix(3))

	// A second compaction seals the regrown tail into a second segment.
	if res, err = st.CompactWriter(ctx, DefaultWriter, CompactOptions{}); err != nil || res.Sealed != 20 {
		t.Fatalf("second compact: %+v, %v", res, err)
	}
	verifyStore(t, st, c, splitmix(4))
	stats = st.Stats()
	if stats.Segments != 2 {
		t.Fatalf("segments = %d, want 2", stats.Segments)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: replay through both segments plus the empty tail must
	// reproduce the stayed-open store exactly, stats included.
	st2, err := Open(path, WithCache(128))
	if err != nil {
		t.Fatalf("reopen compacted store: %v", err)
	}
	defer st2.Close()
	verifyStore(t, st2, c, splitmix(5))
	s2 := st2.Stats()
	if s2.Snapshots != stats.Snapshots || s2.Blocks != stats.Blocks ||
		s2.BaseFrames != stats.BaseFrames || s2.DeltaFrames != stats.DeltaFrames ||
		s2.Bytes != stats.Bytes || s2.Segments != stats.Segments ||
		s2.TailBytes != stats.TailBytes || s2.SealedBytes != stats.SealedBytes {
		t.Fatalf("reopen stats drifted:\n got  %+v\n want %+v", s2, stats)
	}
	assertCleanDir(t, path)
}

// TestCompactionReclaimsRebases: a long delta-heavy history compacted
// under a sparser in-segment cadence sheds the tail's periodic rebases —
// the headline space win.
func TestCompactionReclaims(t *testing.T) {
	c := genCampaign(7, 60)
	path := filepath.Join(t.TempDir(), "hist")
	// K=2 forces a rebase every other snapshot: maximal redundancy.
	st, err := Open(path, WithBaseInterval(2))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c.append(t, st)
	before := st.Stats()
	res, err := st.CompactWriter(context.Background(), DefaultWriter, CompactOptions{BaseInterval: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.SegmentBytes >= res.TailBytes {
		t.Fatalf("no reclaim: sealed %d tail bytes into %d segment bytes", res.TailBytes, res.SegmentBytes)
	}
	after := st.Stats()
	if after.Bytes >= before.Bytes {
		t.Fatalf("store grew across compaction: %d -> %d", before.Bytes, after.Bytes)
	}
	if after.Compaction.ReclaimedBytes <= 0 {
		t.Fatalf("reclaimed = %d, want > 0", after.Compaction.ReclaimedBytes)
	}
	verifyStore(t, st, c, splitmix(6))
}

// TestCompactionMidQueryEquivalence parks the compactor at its sealed
// pause point — segment staged, manifest not yet swapped — and proves
// the store answers every query bit-identically while frozen there.
func TestCompactionMidQueryEquivalence(t *testing.T) {
	c := genCampaign(13, 30)
	path := filepath.Join(t.TempDir(), "hist")
	st, err := Open(path, WithBaseInterval(4), WithCache(64))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c.append(t, st)

	parked := make(chan struct{})
	resume := make(chan struct{})
	testutil.SetFaultHook(func(point string) error {
		if point == "histstore.compact.sealed" {
			close(parked)
			<-resume
		}
		return nil
	})
	defer testutil.SetFaultHook(nil)

	done := make(chan error, 1)
	go func() {
		_, err := st.CompactWriter(context.Background(), DefaultWriter, CompactOptions{})
		done <- err
	}()
	<-parked
	verifyStore(t, st, c, splitmix(7)) // mid-compaction
	close(resume)
	if err := <-done; err != nil {
		t.Fatalf("compact: %v", err)
	}
	verifyStore(t, st, c, splitmix(8)) // post-compaction
}

// TestCompactionCrashPoints kills the compactor at every fault point in
// the protocol and proves Open recovers to either the pre- or the
// post-compaction manifest — never a torn middle state — with all four
// query APIs still bit-identical to brute-force replay and no stray
// files surviving the orphan sweep.
func TestCompactionCrashPoints(t *testing.T) {
	points := []struct {
		point     string
		committed bool // the manifest swap happened before the crash
	}{
		{"histstore.compact.segment.write", false},
		{"histstore.compact.segment.rename", false},
		{"histstore.compact.sidecar.write", false},
		{"histstore.compact.sidecar.rename", false},
		{"histstore.compact.sealed", false},
		{"histstore.compact.tail.write", false},
		{"histstore.compact.tail.rename", false},
		{"histstore.compact.manifest.write", false},
		{"histstore.compact.manifest.rename", false},
		{"histstore.compact.cleanup", true},
	}
	errCrash := errors.New("injected crash")
	for _, tc := range points {
		t.Run(strings.TrimPrefix(tc.point, "histstore.compact."), func(t *testing.T) {
			c := genCampaign(17, 25)
			path := filepath.Join(t.TempDir(), "hist")
			st, err := Open(path, WithBaseInterval(3))
			if err != nil {
				t.Fatal(err)
			}
			c.append(t, st)

			testutil.SetFaultHook(func(point string) error {
				if point == tc.point {
					return errCrash
				}
				return nil
			})
			_, err = st.CompactWriter(context.Background(), DefaultWriter, CompactOptions{})
			testutil.SetFaultHook(nil)
			if !errors.Is(err, errCrash) {
				t.Fatalf("compact survived the %s crash: %v", tc.point, err)
			}
			// Simulate the process dying: no graceful close bookkeeping is
			// assumed beyond dropping the handles.
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			st, err = Open(path, WithCache(32))
			if err != nil {
				t.Fatalf("reopen after crash at %s: %v", tc.point, err)
			}
			defer st.Close()
			stats := st.Stats()
			wantSegs := 0
			if tc.committed {
				wantSegs = 1
			}
			if stats.Segments != wantSegs {
				t.Fatalf("recovered to %d segments after crash at %s, want %d", stats.Segments, tc.point, wantSegs)
			}
			if stats.Snapshots != 25 {
				t.Fatalf("recovered %d snapshots, want 25", stats.Snapshots)
			}
			verifyStore(t, st, c, splitmix(9))
			assertCleanDir(t, path)

			// And the recovered store still appends and compacts.
			if err := st.Append(c.times[24].AddDate(0, 0, 1), c.snaps[24]); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			if _, err := st.CompactWriter(context.Background(), DefaultWriter, CompactOptions{}); err != nil {
				t.Fatalf("compact after recovery: %v", err)
			}
		})
	}
}

// TestWriterLock: the advisory tail lock makes the single-writer rule
// loud — a second Open of the writer fails with ErrWriterActive instead
// of silently corrupting the tail, while read-only opens coexist freely.
func TestWriterLock(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Append(time.Date(2020, 3, 1, 6, 0, 0, 0, time.UTC), nil); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(path); !errors.Is(err, ErrWriterActive) {
		t.Fatalf("second open of writer %q: %v, want ErrWriterActive", DefaultWriter, err)
	}
	ro, err := Open(path, WithReadOnly())
	if err != nil {
		t.Fatalf("read-only open blocked: %v", err)
	}
	ro.Close()

	// Releasing the writer frees the id for the next owner.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after release: %v", err)
	}
	st2.Close()
}

// TestReadOnlyOpen: a read-only handle requires an existing store,
// refuses Append, and registers no writer.
func TestReadOnlyOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist")
	if _, err := Open(path, WithReadOnly()); !errors.Is(err, ErrNoStore) {
		t.Fatalf("read-only open of nothing: %v, want ErrNoStore", err)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC), nil); err != nil {
		t.Fatal(err)
	}
	st.Close()
	ro, err := Open(path, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if err := ro.Append(time.Date(2020, 3, 2, 0, 0, 0, 0, time.UTC), nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only append: %v, want ErrReadOnly", err)
	}
	if id := ro.WriterID(); id != "" {
		t.Fatalf("read-only WriterID = %q, want empty", id)
	}
}

// TestSegmentCorruption: any damage to a sealed segment — header, frame
// bytes, footer, trailer, or truncation — fails the next Open loudly.
// Segments are never quietly truncated the way an owned tail is.
func TestSegmentCorruption(t *testing.T) {
	build := func(t *testing.T) (string, string) {
		c := genCampaign(29, 15)
		path := filepath.Join(t.TempDir(), "hist")
		st, err := Open(path, WithBaseInterval(3))
		if err != nil {
			t.Fatal(err)
		}
		c.append(t, st)
		if _, err := st.CompactWriter(context.Background(), DefaultWriter, CompactOptions{}); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := filepath.Glob(filepath.Join(path, "seg-*.seg"))
		if err != nil || len(segs) != 1 {
			t.Fatalf("segments: %v (err %v)", segs, err)
		}
		return path, segs[0]
	}
	damage := []struct {
		name string
		hurt func(t *testing.T, seg string, size int64)
	}{
		{"flip-header", func(t *testing.T, seg string, size int64) { flipByte(t, seg, 4) }},
		{"flip-frame", func(t *testing.T, seg string, size int64) { flipByte(t, seg, size/2) }},
		{"flip-trailer", func(t *testing.T, seg string, size int64) { flipByte(t, seg, size-4) }},
		{"flip-footer-crc", func(t *testing.T, seg string, size int64) { flipByte(t, seg, size-10) }},
		{"truncate-frames", func(t *testing.T, seg string, size int64) {
			if err := os.Truncate(seg, size/2); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncate-trailer", func(t *testing.T, seg string, size int64) {
			if err := os.Truncate(seg, size-1); err != nil {
				t.Fatal(err)
			}
		}},
		{"empty", func(t *testing.T, seg string, size int64) {
			if err := os.Truncate(seg, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"missing", func(t *testing.T, seg string, size int64) {
			if err := os.Remove(seg); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			path, seg := build(t)
			fi, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			d.hurt(t, seg, fi.Size())
			st, err := Open(path)
			if err == nil {
				st.Close()
				t.Fatal("opened a store with a damaged segment")
			}
		})
	}
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// TestCompactSkipsAndGuards: the skip conditions and re-entrancy guard.
func TestCompactSkipsAndGuards(t *testing.T) {
	ctx := context.Background()
	c := genCampaign(37, 5)
	path := filepath.Join(t.TempDir(), "hist")
	st, err := Open(path, WithBaseInterval(7))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c.append(t, st)

	// Too small a tail: skipped with the reason, not an error.
	res, err := st.CompactWriter(ctx, DefaultWriter, CompactOptions{})
	if err != nil || res.Skipped == "" || res.Sealed != 0 {
		t.Fatalf("small-tail compact: %+v, %v", res, err)
	}
	// Unknown writer: loud.
	if _, err := st.CompactWriter(ctx, "ghost", CompactOptions{}); err == nil {
		t.Fatal("compacted an unknown writer")
	}
	// Re-entrancy: a second run while one is parked reports busy.
	parked := make(chan struct{})
	resume := make(chan struct{})
	testutil.SetFaultHook(func(point string) error {
		if point == "histstore.compact.sealed" {
			close(parked)
			<-resume
		}
		return nil
	})
	defer testutil.SetFaultHook(nil)
	done := make(chan error, 1)
	go func() {
		_, err := st.CompactWriter(ctx, DefaultWriter, CompactOptions{MinSeal: 1})
		done <- err
	}()
	<-parked
	if _, err := st.CompactWriter(ctx, DefaultWriter, CompactOptions{MinSeal: 1}); !errors.Is(err, ErrCompactBusy) {
		t.Fatalf("concurrent compact: %v, want ErrCompactBusy", err)
	}
	close(resume)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Compact on a closed store: ErrClosed, and the Compact sweep
	// surfaces it rather than skipping.
	st2, err := Open(filepath.Join(t.TempDir(), "other"))
	if err != nil {
		t.Fatal(err)
	}
	st2.Close()
	if _, err := st2.CompactWriter(ctx, DefaultWriter, CompactOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("compact after close: %v, want ErrClosed", err)
	}
}

// TestReadOnlyHandleNeverCompacts: only the writer compacts. Compact on
// a WithReadOnly handle is ErrReadOnly and leaves the directory byte for
// byte as it was, whether the writer is live or released, and
// CompactWriter refuses any writer but the store's own.
func TestReadOnlyHandleNeverCompacts(t *testing.T) {
	c := genCampaign(41, 12)
	path := filepath.Join(t.TempDir(), "hist")
	st, err := Open(path, WithWriter("alpha"), WithBaseInterval(4))
	if err != nil {
		t.Fatal(err)
	}
	c.append(t, st)
	ro, err := Open(path, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	files := func() map[string]string {
		t.Helper()
		d, err := testutil.DirDigest(path)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	refused := func(state string) {
		t.Helper()
		before := files()
		if res, err := ro.Compact(context.Background(), CompactOptions{}); !errors.Is(err, ErrReadOnly) || res.Sealed != 0 {
			t.Fatalf("Compact on a read-only handle, writer %s: %+v, %v; want ErrReadOnly", state, res, err)
		}
		if _, err := ro.CompactWriter(context.Background(), "alpha", CompactOptions{}); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("CompactWriter on a read-only handle, writer %s: %v; want ErrReadOnly", state, err)
		}
		if after := files(); !maps.Equal(after, before) {
			t.Fatalf("a refused compaction, writer %s, changed the directory from %v to %v", state, before, after)
		}
	}
	refused("live")
	var we *WriterError
	if _, err := st.CompactWriter(context.Background(), "beta", CompactOptions{}); !errors.As(err, &we) || we.Writer != "alpha" {
		t.Fatalf("CompactWriter of another writer: %v, want a *WriterError naming alpha", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	refused("released")
	verifyStore(t, ro, c, splitmix(14))
}

// TestColdSegmentCorruptionAtLoad pins what a query checks in a segment
// whose file changed under an open handle. Open validated the segment's
// index and the handle keeps it, so damage to a segment's footer or
// trailer changes no answer: the next Open is what catches it. The bytes
// a query still reads are checked: a damaged or cut-off frame fails the
// query loudly, naming the segment, while queries inside the other
// segments keep answering.
func TestColdSegmentCorruptionAtLoad(t *testing.T) {
	c := genCampaign(7, 35)
	pristine := filepath.Join(t.TempDir(), "hist")
	st, err := Open(pristine, WithBaseInterval(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.snaps {
		if err := st.Append(c.times[i], c.snaps[i]); err != nil {
			t.Fatal(err)
		}
		if i < 30 && i%10 == 9 {
			if _, err := st.CompactWriter(context.Background(), DefaultWriter, CompactOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ref, err := Open(pristine, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	// open opens a copy of the store and returns its directory and
	// segment files, oldest first.
	open := func(t *testing.T) (*Store, string, []string) {
		dir := filepath.Join(t.TempDir(), "hist")
		copyStoreDir(t, pristine, dir)
		st, err := Open(dir, WithReadOnly())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		var segs []string
		for _, g := range st.w.segs {
			segs = append(segs, g.path)
		}
		if len(segs) != 3 {
			t.Fatalf("%d segments, want 3", len(segs))
		}
		return st, dir, segs
	}
	ip := dnswire.IPv4{c.blocks[0].Addr[0], c.blocks[0].Addr[1], c.blocks[0].Addr[2], 7}
	resident := func(t *testing.T, st *Store) {
		t.Helper()
		name, ok, err := st.At(ip, c.times[25])
		wantName, wantOK, _ := c.bruteAt(ip, c.times[25])
		if err != nil || name != wantName || ok != wantOK {
			t.Fatalf("query in the open segment: (%q, %v, %v), want (%q, %v)", name, ok, err, wantName, wantOK)
		}
	}

	t.Run("footer and trailer", func(t *testing.T) {
		st, dir, segs := open(t)
		for _, seg := range segs {
			b, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			size := int64(len(b))
			footerOff := int64(binary.LittleEndian.Uint64(b[size-segTrailerLen:]))
			flipByte(t, seg, footerOff)                        // the block count
			flipByte(t, seg, (footerOff+size-segTrailerLen)/2) // a ref
			flipByte(t, seg, size-segTrailerLen+8)             // the footer CRC
			flipByte(t, seg, size-1)                           // the trailer magic
		}
		sameAnswers(t, "damaged footers", st, ref)
		samePages(t, "damaged footers", st, ref, dnswire.Prefix{Addr: dnswire.IPv4{10, 7, 0, 0}, Bits: 16})
		samePages(t, "damaged footers", st, ref, c.blocks[2])
		if _, err := Open(dir, WithReadOnly()); err == nil || !strings.Contains(err.Error(), filepath.Base(segs[0])) {
			t.Fatalf("the next Open: %v, want a failure naming %s", err, filepath.Base(segs[0]))
		}
	})

	t.Run("frame", func(t *testing.T) {
		st, _, segs := open(t)
		p := c.blocks[0]
		refs := st.w.segs[0].idx.lookup(p)
		if len(refs) == 0 {
			t.Fatalf("block %s in the oldest segment: no refs", p)
		}
		r := refs[0]
		flipByte(t, segs[0], r.off+int64(r.length)/2)
		resident(t, st)
		_, _, err = st.At(ip, c.times[r.snap])
		for _, want := range []string{filepath.Base(segs[0]), p.String(), fmt.Sprintf("snapshot %d", r.snap), "CRC"} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("At over a damaged frame: %v, want a failure naming %q", err, want)
			}
		}
		if _, err := st.ChurnContext(context.Background(), p, c.times[0], c.times[34]); err == nil || !strings.Contains(err.Error(), filepath.Base(segs[0])) {
			t.Fatalf("Churn over a damaged frame: %v, want a failure naming the segment", err)
		}
		resident(t, st)
	})

	t.Run("truncated", func(t *testing.T) {
		st, _, segs := open(t)
		p := c.blocks[0]
		refs := st.w.segs[0].idx.lookup(p)
		if len(refs) == 0 {
			t.Fatalf("block %s in the oldest segment: no refs", p)
		}
		r := refs[0]
		if err := os.Truncate(segs[0], r.off+int64(r.length)/2); err != nil {
			t.Fatal(err)
		}
		resident(t, st)
		if _, _, err := st.At(ip, c.times[r.snap]); err == nil || !strings.Contains(err.Error(), filepath.Base(segs[0])) {
			t.Fatalf("reading a cut-off frame: %v, want a failure naming the segment", err)
		}
		resident(t, st)
	})
}

// samePages fails unless two stores page through p's whole history, a
// few rows a page, identically.
func samePages(t *testing.T, what string, a, b *Store, p dnswire.Prefix) {
	t.Helper()
	times := a.Times()
	from, to := times[0], times[len(times)-1]
	var curA, curB RangeCursor
	for pages := 0; ; pages++ {
		ra, nextA, moreA, errA := a.RangePage(context.Background(), p, from, to, curA, 7)
		rb, nextB, moreB, errB := b.RangePage(context.Background(), p, from, to, curB, 7)
		if errA != nil || errB != nil || !reflect.DeepEqual(ra, rb) || nextA != nextB || moreA != moreB {
			t.Fatalf("%s: RangePage(%s) page %d differs (%v, %v)", what, p, pages, errA, errB)
		}
		if !moreA {
			return
		}
		curA, curB = nextA, nextB
	}
}

// TestCompactCanceledContext: a compaction checks its context before it
// starts and returns promptly once canceled, leaving the store intact.
func TestCompactCanceledContext(t *testing.T) {
	dir := t.TempDir() + "/hist"
	st, err := Open(dir, WithBaseInterval(3))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c := genCampaign(11, 8)
	c.append(t, st)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := st.Compact(ctx, CompactOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep: %v", err)
	}
	// The store is unharmed: a live context seals as usual.
	res, err := st.Compact(context.Background(), CompactOptions{})
	if err != nil || res.Sealed != 8 {
		t.Fatalf("post-cancel sweep: %+v err=%v", res, err)
	}
}
