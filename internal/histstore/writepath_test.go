package histstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"rdnsprivacy/internal/testutil"
)

// sameStore fails unless the two handles hold the same store: timeline,
// frame and byte statistics, per-writer layout, append schedule and
// sealed end states (a's also against their rebuild), and the postings
// of every token either has indexed.
func sameStore(t *testing.T, what string, a, b *Store) {
	t.Helper()
	if ta, tb := a.Times(), b.Times(); !reflect.DeepEqual(ta, tb) {
		t.Fatalf("%s: timelines differ: %d vs %d snapshots", what, len(ta), len(tb))
	}
	sa, sb := a.Stats(), b.Stats()
	type frameStats struct {
		Snapshots, Blocks, BaseFrames, DeltaFrames, Segments int
		Bytes, TailBytes, SealedBytes                        int64
	}
	fa := frameStats{sa.Snapshots, sa.Blocks, sa.BaseFrames, sa.DeltaFrames, sa.Segments, sa.Bytes, sa.TailBytes, sa.SealedBytes}
	fb := frameStats{sb.Snapshots, sb.Blocks, sb.BaseFrames, sb.DeltaFrames, sb.Segments, sb.Bytes, sb.TailBytes, sb.SealedBytes}
	if fa != fb {
		t.Fatalf("%s: stats differ:\n %+v\n %+v", what, fa, fb)
	}
	wa, wb := sa.Writers[0], sb.Writers[0]
	if len(sa.Writers) != 1 || len(sb.Writers) != 1 || wa != wb {
		t.Fatalf("%s: writer stats differ: %+v vs %+v", what, sa.Writers, sb.Writers)
	}
	if ca, cb := a.w.cadence, b.w.cadence; !reflect.DeepEqual(ca, cb) {
		t.Fatalf("%s: writer %s append schedule differs:\n %v\n %v", what, wa.ID, ca, cb)
	}
	if ea, eb := a.w.sealedEnd, b.w.sealedEnd; !maps.EqualFunc(ea, eb, slices.Equal[blockState]) {
		t.Fatalf("%s: writer %s holds different sealed end states", what, wa.ID)
	}
	checkSealedEnds(t, what, a)
	tokens := map[string]bool{}
	for _, st := range []*Store{a, b} {
		for tok := range st.names.addrs {
			tokens[tok] = true
		}
	}
	for tok := range tokens {
		if pa, pb := a.FindName(tok), b.FindName(tok); !reflect.DeepEqual(pa, pb) {
			t.Fatalf("%s: FindName(%q) differs:\n %+v\n %+v", what, tok, pa, pb)
		}
	}
}

// copyStoreDir clones a store directory's files.
func copyStoreDir(t *testing.T, from, to string) {
	t.Helper()
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		copyFeedFile(t, from, to, e.Name())
	}
}

// sameFiles fails unless the two store directories hold the same files,
// byte for byte.
func sameFiles(t *testing.T, what, a, b string) {
	t.Helper()
	read := func(dir string) map[string][]byte {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := make(map[string][]byte)
		for _, e := range ents {
			if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
		return files
	}
	fa, fb := read(a), read(b)
	for name, da := range fa {
		if db, ok := fb[name]; !ok || !bytes.Equal(da, db) {
			t.Fatalf("%s: %s differs (%d vs %d bytes, present %v)", what, name, len(da), len(db), ok)
		}
	}
	if len(fa) != len(fb) {
		t.Fatalf("%s: %d vs %d files", what, len(fa), len(fb))
	}
}

// TestStayedOpenMatchesReopened is the property one commit path exists
// for: whatever seeded interleaving of Append, CompactWriter and
// close+Open a handle lives through, after every step it holds exactly
// what a fresh read-only Open replays from the files — and an identical
// next Append to the handle and to a reopened copy of the directory
// leaves identical files, so the two also agree on when every block is
// next re-based. The foreign cases run it on a handle that takes over a
// store another handle began under its own writer id and compacted, and
// that the handle opens naming no writer.
func TestStayedOpenMatchesReopened(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		seed    uint64
		k       int
		foreign bool
	}{
		{seed: 31, k: 3},
		{seed: 32, k: 7},
		{seed: 33, k: 1},
		{seed: 34, k: 2, foreign: true},
		{seed: 35, k: 5, foreign: true},
	} {
		t.Run(fmt.Sprintf("seed=%d/K=%d/foreign=%v", tc.seed, tc.k, tc.foreign), func(t *testing.T) {
			c := genCampaign(tc.seed, 70)
			root := t.TempDir()
			dir := filepath.Join(root, "hist")
			self := DefaultWriter
			day := 0
			opts := []Option{WithWriter(self)}
			if tc.foreign {
				// The first days come from another handle, under its own
				// writer id and sealed once; it then goes away, and this
				// handle takes the writer on from the manifest.
				self = "zulu"
				zulu, err := Open(dir, WithWriter(self), WithBaseInterval(tc.k))
				if err != nil {
					t.Fatal(err)
				}
				for ; day < 12; day++ {
					if err := zulu.Append(c.times[day], c.snaps[day]); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := zulu.Compact(ctx, CompactOptions{MinSeal: 5}); err != nil {
					t.Fatal(err)
				}
				zulu.Close()
				opts = nil
			}
			st, err := Open(dir, append(opts, WithBaseInterval(tc.k), WithCache(16))...)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { st.Close() }()

			rng := splitmix(tc.seed * 2654435761)
			for step := 0; step < 90 && day < len(c.snaps); step++ {
				var what string
				switch r := rng() % 10; {
				case r < 6:
					what = fmt.Sprintf("step %d: append day %d", step, day)
					// The same append, to a reopened copy and to the handle.
					fork := filepath.Join(root, fmt.Sprintf("fork-%d", step))
					copyStoreDir(t, dir, fork)
					re, err := Open(fork, opts...)
					if err != nil {
						t.Fatalf("%s: opening the copy: %v", what, err)
					}
					if err := re.Append(c.times[day], c.snaps[day]); err != nil {
						t.Fatalf("%s: on the copy: %v", what, err)
					}
					re.Close()
					if err := st.Append(c.times[day], c.snaps[day]); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					sameFiles(t, what, dir, fork)
					os.RemoveAll(fork)
					day++
				case r < 9:
					what = fmt.Sprintf("step %d: compact", step)
					if _, err := st.CompactWriter(ctx, self, CompactOptions{MinSeal: 1 + int(rng()%5)}); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
				default:
					what = fmt.Sprintf("step %d: close and reopen", step)
					if err := st.Close(); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if st, err = Open(dir, append(opts, WithCache(16))...); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
				}
				ro, err := Open(dir, WithReadOnly())
				if err != nil {
					t.Fatalf("%s: read-only open: %v", what, err)
				}
				sameStore(t, what, st, ro)
				ro.Close()
			}
			if st.Stats().Segments == 0 {
				t.Fatal("the interleaving never sealed a segment")
			}
			assertCleanDir(t, dir)
		})
	}
}

// TestAppendFault: an append that fails — the write torn part-way, or
// the fsync refused after every byte landed — leaves no trace. The handle
// and a reopened store answer and count exactly as before, the tail is
// back at its last good boundary, and the next append lays down the same
// bytes as in a store that never failed.
func TestAppendFault(t *testing.T) {
	for _, point := range []string{"histstore.append.write", "histstore.append.sync"} {
		t.Run(point, func(t *testing.T) {
			c := genCampaign(41, 16)
			before := &campaign{times: c.times[:12], snaps: c.snaps[:12], blocks: c.blocks}
			root := t.TempDir()
			dir, refDir := filepath.Join(root, "hist"), filepath.Join(root, "ref")
			st, err := Open(dir, WithBaseInterval(3), WithSync())
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			ref, err := Open(refDir, WithBaseInterval(3), WithSync())
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			before.append(t, st)
			before.append(t, ref)
			tail := tailPath(t, dir)
			good, err := os.ReadFile(tail)
			if err != nil {
				t.Fatal(err)
			}

			errFault := errors.New("injected fault")
			testutil.SetFaultHook(func(p string) error {
				if p != point {
					return nil
				}
				if p == "histstore.append.write" {
					// What a write that died part-way leaves behind.
					torn := append(append([]byte(nil), good...), frameSnap, 0x02, 0x08)
					if err := os.WriteFile(tail, torn, 0o644); err != nil {
						t.Error(err)
					}
				}
				return errFault
			})
			err = st.Append(c.times[12], c.snaps[12])
			testutil.SetFaultHook(nil)
			if !errors.Is(err, errFault) {
				t.Fatalf("Append = %v, want the injected fault", err)
			}

			if now, err := os.ReadFile(tail); err != nil || !bytes.Equal(now, good) {
				t.Fatalf("tail is %d bytes after the failed append, want the %d before it (err %v)", len(now), len(good), err)
			}
			sameStore(t, "stayed-open vs never-failed", st, ref)
			verifyStore(t, st, before, splitmix(5))
			ro, err := Open(dir, WithReadOnly())
			if err != nil {
				t.Fatal(err)
			}
			sameStore(t, "stayed-open vs reopened", st, ro)
			verifyStore(t, ro, before, splitmix(6))
			ro.Close()

			for i := 12; i < 16; i++ {
				for _, s := range []*Store{st, ref} {
					if err := s.Append(c.times[i], c.snaps[i]); err != nil {
						t.Fatalf("append day %d after the fault: %v", i, err)
					}
				}
			}
			sameFiles(t, "after the fault", dir, refDir)
			verifyStore(t, st, c, splitmix(7))
		})
	}
}
