package histstore

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/testutil"
)

// rebuiltSealedEnd is how the store found its writer's sealed end before
// it held one: each block the store knows walked, frame by frame, to the
// last snapshot of its sealed history. Only live blocks are kept.
func rebuiltSealedEnd(t *testing.T, s *Store) map[dnswire.Prefix]blockState {
	t.Helper()
	w := s.w
	r := reader{s: s}
	defer r.release()
	out := make(map[dnswire.Prefix]blockState)
	for _, p := range s.blocks {
		b := writerWalk{w: w, p: p}
		if err := b.seedSealed(&r, w.tailFirst-1); err != nil {
			t.Fatalf("rebuilding writer %s block %s at %d: %v", w.id, p, w.tailFirst-1, err)
		}
		if len(b.state.cur) > 0 {
			out[p] = b.state.cur
		}
	}
	return out
}

// checkSealedEnds holds the writer's sealed end states to
// rebuiltSealedEnd, block by block, over every block the store knows.
func checkSealedEnds(t *testing.T, what string, s *Store) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	w := s.w
	want := rebuiltSealedEnd(t, s)
	if len(w.sealedEnd) != len(want) {
		t.Fatalf("%s: writer %s holds %d live sealed blocks, rebuilt %d", what, w.id, len(w.sealedEnd), len(want))
	}
	for _, p := range s.blocks {
		if got := w.sealedEnd[p]; !slices.Equal(got, want[p]) {
			t.Fatalf("%s: writer %s block %s sealed at %d:\n held    %v\n rebuilt %v", what, w.id, p, w.tailFirst-1, got, want[p])
		}
	}
}

// heldCampaign is genCampaign with its first block wiped out over days
// 14..19 and then back, so a seal can end with the block dead and the
// tail revive it.
func heldCampaign(seed uint64, days int) *campaign {
	c := genCampaign(seed, days)
	for d := 14; d < 20 && d < days; d++ {
		for ip := range c.snaps[d] {
			if ip.Slash24() == c.blocks[0] {
				delete(c.snaps[d], ip)
			}
		}
	}
	return c
}

// sealedEndOf is the map the writer holds, for identity checks.
func sealedEndOf(s *Store) map[dnswire.Prefix]blockState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.w.sealedEnd
}

// compactFailing runs one compaction of writer id that must fail with
// wantErr and leave the writer's held states as they were: the same map,
// still what a rebuild gives.
func compactFailing(t *testing.T, what string, s *Store, id string, wantErr error) {
	t.Helper()
	before := sealedEndOf(s)
	_, err := s.CompactWriter(context.Background(), id, CompactOptions{MinSeal: 1})
	if !errors.Is(err, wantErr) {
		t.Fatalf("%s: compaction returned %v, want %v", what, err, wantErr)
	}
	if !sameMap(before, sealedEndOf(s)) {
		t.Fatalf("%s: a failed compaction replaced the held states", what)
	}
	checkSealedEnds(t, what, s)
}

// sameMap reports whether a and b are one map.
func sameMap(a, b map[dnswire.Prefix]blockState) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

// TestHeldSealedEndsMatchReconstruction checks the states a store holds
// for the writer's sealed end against the frame-by-frame rebuild the
// store used to run instead of holding them: after every compaction
// commit (appends interleaved between the seal and the commit among
// them), after a writable, a read-only and a replaying open, and after
// compactions that fail to commit, which must leave the held states
// alone.
func TestHeldSealedEndsMatchReconstruction(t *testing.T) {
	ctx := context.Background()
	c := heldCampaign(41, 60)
	path := filepath.Join(t.TempDir(), "hist")
	st, err := Open(path, WithBaseInterval(3))
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	appendDays := func(st *Store, n int) {
		t.Helper()
		for ; n > 0; n-- {
			if err := st.Append(c.times[next], c.snaps[next]); err != nil {
				t.Fatalf("append day %d: %v", next, err)
			}
			next++
		}
	}
	appendDays(st, 10)
	checkSealedEnds(t, "before any seal", st)
	if _, err := st.CompactWriter(ctx, DefaultWriter, CompactOptions{}); err != nil {
		t.Fatal(err)
	}
	checkSealedEnds(t, "first compaction", st)

	// Appends land between the seal and the commit: they stay in the tail,
	// and the held states are the cut's, not the appends'.
	appendDays(st, 8)
	testutil.SetFaultHook(func(point string) error {
		if point == "histstore.compact.sealed" {
			appendDays(st, 3)
		}
		return nil
	})
	res, err := st.CompactWriter(ctx, DefaultWriter, CompactOptions{})
	testutil.SetFaultHook(nil)
	if err != nil || res.Sealed != 8 {
		t.Fatalf("interleaved compaction: %+v, %v", res, err)
	}
	checkSealedEnds(t, "compaction with appends interleaved", st)
	if _, live := sealedEndOf(st)[c.blocks[0]]; live {
		t.Fatalf("block %s, dead at the cut, is in the held states", c.blocks[0])
	}

	// A commit that fails leaves the held states alone: another process
	// moved the writer's tail, or the manifest rename failed.
	appendDays(st, 6)
	manifest := filepath.Join(path, manifestName)
	orig, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	testutil.SetFaultHook(func(point string) error {
		if point == "histstore.compact.sealed" {
			m, err := readManifest(path)
			if err != nil {
				return err
			}
			m.writer.tailFile = tailFileName(DefaultWriter, 99)
			return writeManifest(path, m, "")
		}
		return nil
	})
	compactFailing(t, "commit refused", st, DefaultWriter, errStoreChanged)
	testutil.SetFaultHook(nil)
	if err := os.WriteFile(manifest, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	errCrash := errors.New("injected rename failure")
	testutil.SetFaultHook(func(point string) error {
		if point == "histstore.compact.manifest.rename" {
			return errCrash
		}
		return nil
	})
	compactFailing(t, "manifest rename failed", st, DefaultWriter, errCrash)
	testutil.SetFaultHook(nil)
	if _, err := st.CompactWriter(ctx, DefaultWriter, CompactOptions{MinSeal: 1}); err != nil {
		t.Fatal(err)
	}
	checkSealedEnds(t, "compaction after failed ones", st)
	appendDays(st, 4) // a tail past the last seal
	checkSealedEnds(t, "appends after the seal", st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	for _, open := range []struct {
		what string
		open func() (*Store, error)
	}{
		{"writable open", func() (*Store, error) { return Open(path) }},
		{"read-only open", func() (*Store, error) { return Open(path, WithReadOnly()) }},
		{"replaying open", func() (*Store, error) { return openStore(path, []Option{WithReadOnly()}, true) }},
	} {
		st, err := open.open()
		if err != nil {
			t.Fatalf("%s: %v", open.what, err)
		}
		checkSealedEnds(t, open.what, st)
		st.Close()
	}

}
