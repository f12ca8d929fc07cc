package histstore

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/scanengine"
)

// TestEachSnapshotMatchesOwnCampaign pins EachSnapshot against the raw
// campaign oracle: two campaigns over the same blocks, each in a store of
// its own as two vantages keep them, each answering exactly its own
// campaign — block states and instants — across the tail/segment
// boundary.
func TestEachSnapshotMatchesOwnCampaign(t *testing.T) {
	ca := genCampaign(21, 30)
	cb := genCampaign(221, 30)
	for i := range cb.times {
		cb.times[i] = cb.times[i].Add(30 * time.Minute)
	}
	root := t.TempDir()
	for _, tc := range []struct {
		id string
		c  *campaign
	}{{"alpha", ca}, {"beta", cb}} {
		path := filepath.Join(root, tc.id)
		st, err := Open(path, WithWriter(tc.id), WithBaseInterval(5))
		if err != nil {
			t.Fatal(err)
		}
		tc.c.append(t, st)
		// Seal part of the history so reads cross the tail/segment
		// boundary.
		if _, err := st.CompactWriter(t.Context(), tc.id, CompactOptions{MinSeal: 5}); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		ro, err := Open(path, WithReadOnly(), WithCache(64))
		if err != nil {
			t.Fatal(err)
		}
		times := ro.Times()
		if len(times) != len(tc.c.times) {
			t.Fatalf("%s: %d instants, want %d", tc.id, len(times), len(tc.c.times))
		}
		for i := range times {
			if !times[i].Equal(tc.c.times[i]) {
				t.Fatalf("%s: times[%d] = %s, want %s", tc.id, i, times[i], tc.c.times[i])
			}
		}
		// Before the store's history.
		if n := countSnapshots(t, ro, tc.c.blocks[0], tc.c.times[0].Add(-48*time.Hour), tc.c.times[0].Add(-time.Hour)); n != 0 {
			t.Fatalf("%s: %d snapshots before history", tc.id, n)
		}
		verifyEachSnapshot(t, tc.id, ro, tc.c)
		ro.Close()
	}
}

// countSnapshots counts the snapshots EachSnapshot hands out over p and
// [from, to], and fails the test on any that holds a record.
func countSnapshots(t *testing.T, st *Store, p dnswire.Prefix, from, to time.Time) int {
	t.Helper()
	n := 0
	err := st.EachSnapshot(t.Context(), p, from, to, func(at time.Time, snap scanengine.Blocks) error {
		if len(snap) != 0 {
			t.Fatalf("%s at %s holds %v", p, at, snap)
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestBlocksAndEmptyWindows: Blocks lists the block universe sorted by
// address, and EachSnapshot before history, of a block emptied since, of
// an unknown /24 or over an inverted window hands out empty snapshots or
// none rather than erroring.
func TestBlocksAndEmptyWindows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2021, 7, 1, 13, 0, 0, 0, time.UTC)
	if err := st.Append(at, scanengine.RecordSet{
		dnswire.IPv4{10, 9, 1, 7}: dnswire.MustName("a.example.net"),
		dnswire.IPv4{10, 2, 1, 7}: dnswire.MustName("b.example.net"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(at.AddDate(0, 0, 1), scanengine.RecordSet{
		dnswire.IPv4{10, 9, 1, 7}: dnswire.MustName("a.example.net"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := Open(path, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()

	blocks := ro.Blocks()
	if len(blocks) != 2 ||
		blocks[0] != (dnswire.Prefix{Addr: dnswire.IPv4{10, 2, 1, 0}, Bits: 24}) ||
		blocks[1] != (dnswire.Prefix{Addr: dnswire.IPv4{10, 9, 1, 0}, Bits: 24}) {
		t.Fatalf("blocks = %v", blocks)
	}
	if n := countSnapshots(t, ro, blocks[1], at.AddDate(0, 0, -2), at.AddDate(0, 0, -1)); n != 0 {
		t.Fatalf("%d snapshots before history", n)
	}
	if n := countSnapshots(t, ro, blocks[0], at.AddDate(0, 0, 1), at.AddDate(0, 0, 1)); n != 1 {
		t.Fatalf("the emptied block: %d snapshots, want 1", n)
	}
	if n := countSnapshots(t, ro, dnswire.MustPrefix("192.0.2.0/24"), at, at.AddDate(0, 0, 1)); n != 2 {
		t.Fatalf("an unknown /24: %d snapshots, want 2", n)
	}
	if n := countSnapshots(t, ro, dnswire.Prefix{}, at.AddDate(0, 0, 1), at); n != 0 {
		t.Fatalf("an inverted window: %d snapshots", n)
	}
}

// TestEachSnapshotMatchesRange: over sealed segments and the tail,
// EachSnapshot's snapshots, flattened, are exactly the rows a
// full-history Range returns, in its date-then-address order; an empty
// store hands out none; the callback's error and a cancelled context each
// end the walk where they happen.
func TestEachSnapshotMatchesRange(t *testing.T) {
	c := genCampaign(29, 120)
	st, err := Open(filepath.Join(t.TempDir(), "hist"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := context.Background()
	first, last := c.times[0], c.times[len(c.times)-1]
	if n := countSnapshots(t, st, dnswire.Prefix{}, first, last); n != 0 {
		t.Fatalf("an empty store handed out %d snapshots", n)
	}
	for i := range c.snaps {
		if err := st.Append(c.times[i], c.snaps[i]); err != nil {
			t.Fatal(err)
		}
		if i == 59 {
			if _, err := st.Compact(ctx, CompactOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := st.Range(dnswire.Prefix{}, first, last)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	err = st.EachSnapshot(ctx, dnswire.Prefix{}, first, last, func(at time.Time, snap scanengine.Blocks) error {
		got = append(got, snapshotStrings(at, snap)...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, rowStrings(want)) {
		t.Fatalf("EachSnapshot handed out %d rows, unlike the %d Range returns", len(got), len(want))
	}

	stop := errors.New("stop")
	n := 0
	err = st.EachSnapshot(ctx, dnswire.Prefix{}, first, last, func(time.Time, scanengine.Blocks) error {
		if n++; n == 65 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || n != 65 {
		t.Fatalf("after the callback's error: err %v after %d snapshots, want stop after 65", err, n)
	}

	// Over every block, and over a /24 the store never saw.
	for _, p := range []dnswire.Prefix{{}, dnswire.MustPrefix("192.0.2.0/24")} {
		cctx, cancel := context.WithCancel(ctx)
		n = 0
		err = st.EachSnapshot(cctx, p, first, last, func(time.Time, scanengine.Blocks) error {
			if n++; n == 3 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) || n != 3 {
			t.Fatalf("%s: after cancelling: err %v after %d snapshots, want context.Canceled after 3", p, err, n)
		}
	}
}

// snapshotStrings renders a snapshot as rows, so it outlives the callback.
func snapshotStrings(at time.Time, snap scanengine.Blocks) []string {
	var rows []dataset.Row
	for _, b := range snap {
		for _, e := range b.Entries {
			rows = append(rows, dataset.Row{Date: at, IP: dnswire.IPv4{b.Prefix.Addr[0], b.Prefix.Addr[1], b.Prefix.Addr[2], e.Octet}, PTR: e.Name})
		}
	}
	return rowStrings(rows)
}

// TestEachSnapshotWhileWriting: the callback runs with no lock held, so
// it can append and compact on the handle it walks. The window stays the
// one the call started with, the walks re-seed across each compaction,
// and every snapshot equals what a read-only reopen hands out. A Close
// from inside the callback ends the walk with ErrClosed.
func TestEachSnapshotWhileWriting(t *testing.T) {
	c := genCampaign(31, 40)
	dir := filepath.Join(t.TempDir(), "hist")
	st, err := Open(dir, WithBaseInterval(3), WithCache(16))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 30; i++ {
		if err := st.Append(c.times[i], c.snaps[i]); err != nil {
			t.Fatal(err)
		}
		if i == 14 {
			if _, err := st.Compact(t.Context(), CompactOptions{MinSeal: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	first, last := c.times[0], c.times[29]
	var got [][]string
	next := 30
	err = st.EachSnapshot(t.Context(), dnswire.Prefix{}, first, last, func(at time.Time, snap scanengine.Blocks) error {
		got = append(got, snapshotStrings(at, snap))
		k := len(got)
		if k == 10 || k == 20 || k == 29 {
			if err := st.AppendBlocks(c.times[next], scanengine.Pack(c.snaps[next])); err != nil {
				return err
			}
			next++
		}
		// The walks stand in the tail at 20 and in a segment at 29.
		if k == 20 || k == 29 {
			if _, err := st.Compact(t.Context(), CompactOptions{MinSeal: 1}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 || st.Stats().Compaction.Runs != 3 {
		t.Fatalf("%d snapshots and %d compactions, want 30 and 3", len(got), st.Stats().Compaction.Runs)
	}
	ro, err := Open(dir, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	k := 0
	err = ro.EachSnapshot(t.Context(), dnswire.Prefix{}, first, last, func(at time.Time, snap scanengine.Blocks) error {
		if want := snapshotStrings(at, snap); !slices.Equal(got[k], want) {
			t.Fatalf("snapshot %d: the writer's walk handed out %d rows, the reopen %d", k, len(got[k]), len(want))
		}
		k++
		return nil
	})
	if err != nil || k != 30 {
		t.Fatalf("the reopen handed out %d snapshots: %v", k, err)
	}

	n := 0
	err = st.EachSnapshot(t.Context(), dnswire.Prefix{}, first, last, func(time.Time, scanengine.Blocks) error {
		if n++; n == 2 {
			return st.Close()
		}
		return nil
	})
	if !errors.Is(err, ErrClosed) || n != 2 {
		t.Fatalf("after a Close from the callback: err %v after %d snapshots, want ErrClosed after 2", err, n)
	}
}

// TestEachSnapshotIsAppendBlocksInverse: EachSnapshot hands out what
// AppendBlocks takes. Appending a tail-only store's snapshots, as handed
// out, to a fresh store of the same writer and base interval writes a
// byte-identical tail.
func TestEachSnapshotIsAppendBlocksInverse(t *testing.T) {
	c := genCampaign(33, 25)
	root := t.TempDir()
	src, err := Open(filepath.Join(root, "src"), WithWriter("w"), WithBaseInterval(4))
	if err != nil {
		t.Fatal(err)
	}
	c.append(t, src)
	dst, err := Open(filepath.Join(root, "dst"), WithWriter("w"), WithBaseInterval(4))
	if err != nil {
		t.Fatal(err)
	}
	err = src.EachSnapshot(t.Context(), dnswire.Prefix{}, c.times[0], c.times[len(c.times)-1], dst.AppendBlocks)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*Store{src, dst} {
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	tails, err := filepath.Glob(filepath.Join(root, "src", "tail-*.log"))
	if err != nil || len(tails) != 1 {
		t.Fatalf("source tails %v: %v", tails, err)
	}
	want, err := os.ReadFile(tails[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(root, "dst", filepath.Base(tails[0])))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the copy's tail is %d bytes, the source's %d, and they differ", len(got), len(want))
	}
}
