package histstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rdnsprivacy/internal/dnswire"
)

// feedFixture builds a store with one sealed segment and a live tail:
// the file-set shape the replication feed must describe and serve.
func feedFixture(t *testing.T) (*Store, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "hist")
	st, err := Open(dir, WithCache(64), WithBaseInterval(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	c := genCampaign(11, 9)
	c.append(t, st)
	if _, err := st.Compact(context.Background(), CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	c2 := genCampaign(12, 12)
	for i := 9; i < 12; i++ {
		if err := st.Append(c2.times[i], c2.snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	return st, dir
}

func TestFeedManifestShape(t *testing.T) {
	st, dir := feedFixture(t)
	fm, err := st.FeedManifest()
	if err != nil {
		t.Fatal(err)
	}
	if fm.BaseInterval != 4 || fm.Snapshots != 12 {
		t.Fatalf("manifest shape: %+v", fm)
	}
	if !fm.LastSnap.Equal(st.Times()[11]) {
		t.Fatalf("last snap %v, want %v", fm.LastSnap, st.Times()[11])
	}
	if len(fm.Writers) != 1 {
		t.Fatalf("writers: %+v", fm.Writers)
	}
	w := fm.Writers[0]
	if w.ID != st.WriterID() || len(w.Segments) != 1 {
		t.Fatalf("writer: %+v", w)
	}
	g := w.Segments[0]
	if g.First != 0 || g.Count != 9 || g.CRC == 0 {
		t.Fatalf("segment: %+v", g)
	}
	// Sizes must match the on-disk files, and TotalBytes their sum.
	segFi, err := os.Stat(filepath.Join(dir, g.File))
	if err != nil {
		t.Fatal(err)
	}
	tailFi, err := os.Stat(filepath.Join(dir, w.TailFile))
	if err != nil {
		t.Fatal(err)
	}
	if g.Size != segFi.Size() || w.TailSize != tailFi.Size() {
		t.Fatalf("sizes diverge from disk: seg %d/%d tail %d/%d", g.Size, segFi.Size(), w.TailSize, tailFi.Size())
	}
	if fm.TotalBytes != g.Size+w.TailSize {
		t.Fatalf("total %d, want %d", fm.TotalBytes, g.Size+w.TailSize)
	}
}

func TestFeedReadSegment(t *testing.T) {
	st, dir := feedFixture(t)
	fm, err := st.FeedManifest()
	if err != nil {
		t.Fatal(err)
	}
	g := fm.Writers[0].Segments[0]
	want, err := os.ReadFile(filepath.Join(dir, g.File))
	if err != nil {
		t.Fatal(err)
	}

	// A chunked walk reassembles the exact file bytes.
	var got []byte
	for off := int64(0); off < g.Size; {
		chunk, total, err := st.FeedReadSegment(g.File, off, 777)
		if err != nil {
			t.Fatalf("read at %d: %v", off, err)
		}
		if total != g.Size {
			t.Fatalf("total %d, want %d", total, g.Size)
		}
		got = append(got, chunk...)
		off += int64(len(chunk))
	}
	if string(got) != string(want) {
		t.Fatal("chunked segment read diverges from the file")
	}

	// max<=0 means "the rest".
	all, _, err := st.FeedReadSegment(g.File, 0, 0)
	if err != nil || len(all) != int(g.Size) {
		t.Fatalf("full read: %d bytes, err %v", len(all), err)
	}

	if _, _, err := st.FeedReadSegment("no-such-file", 0, 10); !errors.Is(err, ErrFeedUnknownFile) {
		t.Fatalf("unknown file: %v", err)
	}
	// Names are matched against the manifest, never joined into paths.
	if _, _, err := st.FeedReadSegment("../"+g.File, 0, 10); !errors.Is(err, ErrFeedUnknownFile) {
		t.Fatalf("traversal name: %v", err)
	}
	if _, _, err := st.FeedReadSegment(g.File, -1, 10); !errors.Is(err, ErrFeedBadRange) {
		t.Fatalf("negative offset: %v", err)
	}
	if _, _, err := st.FeedReadSegment(g.File, g.Size+1, 10); !errors.Is(err, ErrFeedBadRange) {
		t.Fatalf("offset past end: %v", err)
	}

	// Reads go through the handle's own file: one cut short under it
	// fails the read, naming the segment.
	if err := os.Truncate(filepath.Join(dir, g.File), g.Size/2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.FeedReadSegment(g.File, 0, 0); err == nil || !strings.Contains(err.Error(), g.File) {
		t.Fatalf("read of a truncated segment: %v, want a failure naming %s", err, g.File)
	}
}

func TestFeedReadTail(t *testing.T) {
	st, dir := feedFixture(t)
	fm, err := st.FeedManifest()
	if err != nil {
		t.Fatal(err)
	}
	w := fm.Writers[0]
	want, err := os.ReadFile(filepath.Join(dir, w.TailFile))
	if err != nil {
		t.Fatal(err)
	}

	var got []byte
	for off := int64(0); off < w.TailSize; {
		chunk, info, err := st.FeedReadTail(w.ID, w.TailFile, off, 500)
		if err != nil {
			t.Fatalf("read at %d: %v", off, err)
		}
		if info.File != w.TailFile || info.Size != w.TailSize || info.First != w.TailFirst {
			t.Fatalf("tail info %+v, want %+v", info, w)
		}
		got = append(got, chunk...)
		off += int64(len(chunk))
	}
	if string(got) != string(want) {
		t.Fatal("chunked tail read diverges from the file")
	}

	// A caught-up read at the committed size is empty, not an error.
	empty, _, err := st.FeedReadTail(w.ID, w.TailFile, w.TailSize, 100)
	if err != nil || len(empty) != 0 {
		t.Fatalf("caught-up read: %d bytes, err %v", len(empty), err)
	}

	if _, _, err := st.FeedReadTail("nobody", "", 0, 10); !errors.Is(err, ErrFeedUnknownFile) {
		t.Fatalf("unknown writer: %v", err)
	}
	if _, _, err := st.FeedReadTail(w.ID, w.TailFile, w.TailSize+1, 10); !errors.Is(err, ErrFeedBadRange) {
		t.Fatalf("offset past committed: %v", err)
	}

	// Compaction swaps the tail: a read pinned to the old file must fail
	// with ErrFeedTailChanged and carry the successor's identity.
	// MinSeal 1 forces the seal despite the short (3-snapshot) tail.
	if _, err := st.Compact(context.Background(), CompactOptions{MinSeal: 1}); err != nil {
		t.Fatal(err)
	}
	_, info, err := st.FeedReadTail(w.ID, w.TailFile, 0, 10)
	if !errors.Is(err, ErrFeedTailChanged) {
		t.Fatalf("swapped tail: %v", err)
	}
	if info.File == w.TailFile || info.File == "" {
		t.Fatalf("409 info names no successor: %+v", info)
	}
}

func TestFeedClosedStore(t *testing.T) {
	st, _ := feedFixture(t)
	fm, err := st.FeedManifest()
	if err != nil {
		t.Fatal(err)
	}
	w := fm.Writers[0]
	st.Close()
	if _, err := st.FeedManifest(); !errors.Is(err, ErrClosed) {
		t.Fatalf("manifest on closed store: %v", err)
	}
	if _, _, err := st.FeedReadSegment(w.Segments[0].File, 0, 10); !errors.Is(err, ErrClosed) {
		t.Fatalf("segment on closed store: %v", err)
	}
	if _, _, err := st.FeedReadTail(w.ID, w.TailFile, 0, 10); !errors.Is(err, ErrClosed) {
		t.Fatalf("tail on closed store: %v", err)
	}
}

func TestVerifySegmentFile(t *testing.T) {
	st, dir := feedFixture(t)
	fm, err := st.FeedManifest()
	if err != nil {
		t.Fatal(err)
	}
	g := fm.Writers[0].Segments[0]
	id := fm.Writers[0].ID
	path := filepath.Join(dir, g.File)

	size, crc, err := VerifySegmentFile(path, id, g.First, g.Count)
	if err != nil {
		t.Fatalf("valid segment rejected: %v", err)
	}
	if size != g.Size || crc != g.CRC {
		t.Fatalf("verify reports (%d,%08x), manifest says (%d,%08x)", size, crc, g.Size, g.CRC)
	}

	// Identity mismatches are corruption, not lenient fallbacks.
	if _, _, err := VerifySegmentFile(path, "other-writer", g.First, g.Count); err == nil {
		t.Fatal("wrong writer id accepted")
	}
	if _, _, err := VerifySegmentFile(path, id, g.First+1, g.Count); err == nil {
		t.Fatal("wrong first snapshot accepted")
	}

	// A flipped byte anywhere — header, frame region, footer, trailer —
	// must fail the scan.
	for _, off := range []int64{10, g.Size / 3, g.Size / 2, g.Size - 30, g.Size - 5} {
		cp := filepath.Join(t.TempDir(), "seg")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[off] ^= 0x10
		if err := os.WriteFile(cp, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := VerifySegmentFile(cp, id, g.First, g.Count); err == nil {
			t.Fatalf("flip at offset %d went undetected", off)
		}
	}

	// Truncation too.
	cp := filepath.Join(t.TempDir(), "seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cp, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := VerifySegmentFile(cp, id, g.First, g.Count); err == nil {
		t.Fatal("truncated segment accepted")
	}

	// A lying segment: every CRC valid, the content address (the footer's
	// CRC) untouched or recomputed, but the file disagrees with itself.
	// Open would refuse it; so must the verifier a replica runs before it
	// commits the manifest that names it.
	lies := []struct {
		name string
		lie  func(frames []frame, refs map[dnswire.Prefix][]blockRef)
	}{
		{"faithful", func([]frame, map[dnswire.Prefix][]blockRef) {}},
		{"renumbered snapshot headers", func(frames []frame, _ map[dnswire.Prefix][]blockRef) {
			seen := 0
			for i, fr := range frames {
				if fr.kind != frameSnap {
					continue
				}
				if seen++; seen > 1 { // every header after the first skips one ahead
					snap, unix, err := decodeSnapBody(fr.body)
					if err != nil {
						t.Fatal(err)
					}
					frames[i].body = appendSnapBody(nil, snap+1, unix)
				}
			}
		}},
		{"footer ref pointing at a neighbouring frame", func(_ []frame, refs map[dnswire.Prefix][]blockRef) {
			// Two blocks with a frame under the same snapshot header: one's
			// ref now locates the other's frame.
			at := map[int]*blockRef{}
			for _, rs := range refs {
				for i := range rs {
					if other, ok := at[rs[i].snap]; ok {
						rs[i].off, rs[i].length = other.off, other.length
						return
					}
				}
				for i := range rs {
					at[rs[i].snap] = &rs[i]
				}
			}
			t.Fatal("fixture segment never writes two blocks in one snapshot")
		}},
	}
	for _, tc := range lies {
		lying := filepath.Join(t.TempDir(), "seg")
		if err := os.WriteFile(lying, rebuildSegment(t, path, id, g.First, g.Count, tc.lie), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := VerifySegmentFile(lying, id, g.First, g.Count)
		if tc.name == "faithful" {
			// The control: reassembly itself changes nothing.
			if rebuilt, _ := os.ReadFile(lying); err != nil || !bytes.Equal(rebuilt, data) {
				t.Fatalf("faithful reassembly differs from the segment or fails to verify: %v", err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("segment with %s accepted", tc.name)
		}
	}
}

// rebuildSegment takes the segment at path apart — its frames and the
// refs its footer indexes them by — lets lie edit both, and reassembles
// the file with every CRC recomputed.
func rebuildSegment(t *testing.T, path, id string, first, count int, lie func([]frame, map[dnswire.Prefix][]blockRef)) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	idx, frameStart, footerOff, err := readSegmentIndex(f, fi.Size(), id, first, count)
	if err != nil {
		t.Fatal(err)
	}
	region := make([]byte, footerOff-frameStart)
	if _, err := f.ReadAt(region, frameStart); err != nil {
		t.Fatal(err)
	}
	var frames []frame
	for len(region) > 0 {
		var fr frame
		if fr, region, err = decodeFrame(region); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, fr)
	}
	refs := make(map[dnswire.Prefix][]blockRef)
	for i := range idx.dir {
		p, rs, err := idx.block(i, nil)
		if err != nil {
			t.Fatal(err)
		}
		refs[p] = rs
	}
	lie(frames, refs)
	out := encodeSegmentHeader(id, first, count)
	for _, fr := range frames {
		out = appendFrame(out, fr.kind, fr.body)
	}
	footer, end := encodeSegmentFooter(refs, first), len(out)
	out = binary.LittleEndian.AppendUint64(append(out, footer...), uint64(end))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(footer))
	return append(out, segTrailerMagic[:]...)
}

func TestVerifyTailFile(t *testing.T) {
	st, dir := feedFixture(t)
	fm, err := st.FeedManifest()
	if err != nil {
		t.Fatal(err)
	}
	w := fm.Writers[0]
	path := filepath.Join(dir, w.TailFile)

	snaps, err := VerifyTailFile(path, w.TailFirst, w.TailSize)
	if err != nil {
		t.Fatalf("valid tail rejected: %v", err)
	}
	if snaps != 3 {
		t.Fatalf("verified %d snapshots, want 3", snaps)
	}

	if _, err := VerifyTailFile(path, w.TailFirst+1, w.TailSize); err == nil {
		t.Fatal("wrong first snapshot accepted")
	}
	if _, err := VerifyTailFile(path, w.TailFirst, w.TailSize-3); err == nil {
		t.Fatal("size ending inside a frame accepted")
	}
	if _, err := VerifyTailFile(path, w.TailFirst, 4); err == nil {
		t.Fatal("size inside the header accepted")
	}
	if _, err := VerifyTailFile(path, w.TailFirst, w.TailSize+10); err == nil {
		t.Fatal("size past the file accepted")
	}

	for _, off := range []int64{2, w.TailSize / 2, w.TailSize - 2} {
		cp := filepath.Join(t.TempDir(), "tail")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[off] ^= 0x08
		if err := os.WriteFile(cp, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyTailFile(cp, w.TailFirst, w.TailSize); err == nil {
			t.Fatalf("flip at offset %d went undetected", off)
		}
	}
}

func TestWriteFeedManifest(t *testing.T) {
	st, dir := feedFixture(t)
	fm, err := st.FeedManifest()
	if err != nil {
		t.Fatal(err)
	}
	times := st.Times()
	st.Close()

	// Re-commit the same file set into a directory holding the same
	// files: byte-identical, so no advance.
	advanced, err := WriteFeedManifest(dir, fm)
	if err != nil {
		t.Fatal(err)
	}
	if advanced {
		t.Fatal("re-committing the identical manifest reported an advance")
	}

	// Commit into a fresh directory holding copies of the files: the
	// replica-side commit path. The result must open and serve.
	rep := filepath.Join(t.TempDir(), "rep")
	if err := os.MkdirAll(rep, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, w := range fm.Writers {
		copyFeedFile(t, dir, rep, w.TailFile)
		for _, g := range w.Segments {
			copyFeedFile(t, dir, rep, g.File)
		}
	}
	advanced, err = WriteFeedManifest(rep, fm)
	if err != nil {
		t.Fatal(err)
	}
	if !advanced {
		t.Fatal("first commit reported no advance")
	}
	ro, err := Open(rep, WithReadOnly(), WithCache(64))
	if err != nil {
		t.Fatalf("committed directory does not open: %v", err)
	}
	defer ro.Close()
	if got := ro.Times(); len(got) != len(times) || !got[len(got)-1].Equal(times[len(times)-1]) {
		t.Fatalf("reopened store has %d snapshots, want %d", len(got), len(times))
	}

	// Invalid manifests fail before anything is committed.
	if _, err := WriteFeedManifest(t.TempDir(), FeedManifest{}); err == nil {
		t.Fatal("zero base interval accepted")
	}
	bad := fm
	bad.Writers = append([]FeedWriter(nil), fm.Writers...)
	bad.Writers[0].Segments = append([]FeedSegment(nil), fm.Writers[0].Segments...)
	bad.Writers[0].Segments[0].First = 3 // no longer tiles [0, tailFirst)
	dst := t.TempDir()
	if _, err := WriteFeedManifest(dst, bad); err == nil {
		t.Fatal("non-tiling segment set accepted")
	}
	if _, err := os.Stat(filepath.Join(dst, "MANIFEST")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("a rejected manifest left a MANIFEST behind")
	}
}

func copyFeedFile(t *testing.T, from, to, name string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(from, name))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(to, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFeedManifestConsistentUnderAppend hammers FeedManifest while an
// appender runs: every snapshot must be internally consistent (sizes
// monotonic, LastSnap matching the snapshot count).
func TestFeedManifestConsistentUnderAppend(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "hist")
	st, err := Open(dir, WithCache(64), WithBaseInterval(4))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c := genCampaign(5, 40)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range c.snaps {
			if err := st.Append(c.times[i], c.snaps[i]); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	prevBytes := int64(0)
	prevSnaps := 0
	for {
		select {
		case <-done:
			fm, err := st.FeedManifest()
			if err != nil {
				t.Fatal(err)
			}
			if fm.Snapshots != len(c.snaps) {
				t.Fatalf("final manifest has %d snapshots, want %d", fm.Snapshots, len(c.snaps))
			}
			return
		default:
		}
		fm, err := st.FeedManifest()
		if err != nil {
			t.Fatal(err)
		}
		if fm.TotalBytes < prevBytes || fm.Snapshots < prevSnaps {
			t.Fatalf("manifest went backwards: %d/%d bytes, %d/%d snaps",
				fm.TotalBytes, prevBytes, fm.Snapshots, prevSnaps)
		}
		if fm.Snapshots > 0 && fm.LastSnap.IsZero() {
			t.Fatal("snapshots without a LastSnap")
		}
		prevBytes, prevSnaps = fm.TotalBytes, fm.Snapshots
	}
}
