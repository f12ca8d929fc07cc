package histstore

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/testutil"
)

// rebuiltSealedEnd is how the store found a writer's sealed end before it
// held one: each block the writer knows walked, frame by frame, to the
// last snapshot of its sealed history. Only live blocks are kept.
func rebuiltSealedEnd(t *testing.T, s *Store, w *writerState) map[dnswire.Prefix]blockState {
	t.Helper()
	r := reader{s: s}
	defer r.release()
	out := make(map[dnswire.Prefix]blockState)
	for _, p := range w.known {
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

// checkSealedEnds holds every writer's sealed end states to
// rebuiltSealedEnd, block by block, over every block the writer knows.
func checkSealedEnds(t *testing.T, what string, s *Store) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, w := range s.writers {
		want := rebuiltSealedEnd(t, s, w)
		if len(w.sealedEnd) != len(want) {
			t.Fatalf("%s: writer %s holds %d live sealed blocks, rebuilt %d", what, w.id, len(w.sealedEnd), len(want))
		}
		for _, p := range w.known {
			if got := w.sealedEnd[p]; !slices.Equal(got, want[p]) {
				t.Fatalf("%s: writer %s block %s sealed at %d:\n held    %v\n rebuilt %v", what, w.id, p, w.tailFirst-1, got, want[p])
			}
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

// sealedEndOf is the map writer id holds, for identity checks.
func sealedEndOf(s *Store, id string) map[dnswire.Prefix]blockState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, w := range s.writers {
		if w.id == id {
			return w.sealedEnd
		}
	}
	return nil
}

// compactFailing runs one compaction of writer id that must fail with
// wantErr and leave the writer's held states as they were: the same map,
// still what a rebuild gives.
func compactFailing(t *testing.T, what string, s *Store, id string, wantErr error) {
	t.Helper()
	before := sealedEndOf(s, id)
	_, err := s.CompactWriter(context.Background(), id, CompactOptions{MinSeal: 1})
	if !errors.Is(err, wantErr) {
		t.Fatalf("%s: compaction returned %v, want %v", what, err, wantErr)
	}
	if !sameMap(before, sealedEndOf(s, id)) {
		t.Fatalf("%s: a failed compaction replaced the held states", what)
	}
	checkSealedEnds(t, what, s)
}

// sameMap reports whether a and b are one map.
func sameMap(a, b map[dnswire.Prefix]blockState) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

// TestHeldSealedEndsMatchReconstruction checks the states a store holds
// for each writer's sealed end against the frame-by-frame rebuild the
// store used to run instead of holding them: after every compaction
// commit (appends interleaved between the seal and the commit among
// them), after a single-writer open, a multi-writer open and read-only
// opens, and after compactions that fail to commit, which must leave the
// held states alone.
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
	if _, live := sealedEndOf(st, DefaultWriter)[c.blocks[0]]; live {
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
			m.writers[0].tailFile = tailFileName(DefaultWriter, 99)
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
		{"single-writer open", func() (*Store, error) { return Open(path) }},
		{"single-writer read-only open", func() (*Store, error) { return Open(path, WithReadOnly()) }},
		{"single-writer replaying open", func() (*Store, error) { return openStore(path, []Option{WithReadOnly()}, true) }},
	} {
		st, err := open.open()
		if err != nil {
			t.Fatalf("%s: %v", open.what, err)
		}
		checkSealedEnds(t, open.what, st)
		st.Close()
	}

	// A second writer joins: both writers' compactions, then the
	// multi-writer opens.
	bravo, err := Open(path, WithWriter("bravo"), WithBaseInterval(3))
	if err != nil {
		t.Fatal(err)
	}
	bravoDays := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			if err := bravo.Append(c.times[next].Add(time.Hour), c.snaps[next]); err != nil {
				t.Fatalf("bravo day %d: %v", next, err)
			}
			next++
		}
	}
	bravoDays(8)
	checkSealedEnds(t, "second writer joined", bravo)
	for round := 0; round < 2; round++ {
		testutil.SetFaultHook(func(point string) error {
			if point == "histstore.compact.sealed" {
				bravoDays(2)
			}
			return nil
		})
		res, err := bravo.Compact(ctx, CompactOptions{MinSeal: 1})
		testutil.SetFaultHook(nil)
		if err != nil {
			t.Fatal(err)
		}
		checkSealedEnds(t, "multi-writer compaction", bravo)
		if round == 0 && (len(res) != 2 || res[0].Sealed != 8 || res[1].Sealed != 4) {
			t.Fatalf("compaction results: %+v", res)
		}
		bravoDays(5)
	}
	if err := bravo.Close(); err != nil {
		t.Fatal(err)
	}
	for _, open := range []struct {
		what string
		open func() (*Store, error)
	}{
		{"multi-writer open", func() (*Store, error) { return Open(path, WithWriter("bravo")) }},
		{"multi-writer read-only open", func() (*Store, error) { return Open(path, WithReadOnly()) }},
	} {
		st, err := open.open()
		if err != nil {
			t.Fatalf("%s: %v", open.what, err)
		}
		if len(st.writers) != 2 || len(st.writers[0].segs) == 0 || len(st.writers[1].segs) == 0 {
			t.Fatalf("%s: want two writers with segments", open.what)
		}
		checkSealedEnds(t, open.what, st)
		st.Close()
	}
}
