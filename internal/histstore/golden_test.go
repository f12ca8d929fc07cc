package histstore

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// goldenStoreDigest is the SHA-256 over the tail and segment files the
// fixed campaign below leaves on disk, recorded at the commit before the
// packed block states and the CRC-without-copy framing landed. The store
// format did not change, so neither may a byte of these files.
const goldenStoreDigest = "c79d8ad15f1614bad26bf772cb5e4006e2ca2f236a2784fef0d2bc8564b24455"

// TestGoldenStoreBytes replays a fixed seeded campaign of two vantages,
// each into a store of its own — rebases every 3 snapshots, a compaction
// every 13 days, alpha's with the segment cadence relaxed to 5 — and
// requires every tail and segment file to be byte-identical to what the
// recording commit wrote. That commit kept both writers in one directory;
// a writer's files never depended on the other's, so the digest over the
// same file names holds for the split stores.
func TestGoldenStoreBytes(t *testing.T) {
	root := t.TempDir()
	alphaDir, bravoDir := filepath.Join(root, "alpha"), filepath.Join(root, "bravo")
	ca, cb := genCampaign(7, 60), genCampaign(107, 60)
	alpha, err := Open(alphaDir, WithWriter("alpha"), WithBaseInterval(3))
	if err != nil {
		t.Fatal(err)
	}
	defer alpha.Close()
	for day := range ca.snaps {
		if err := alpha.Append(ca.times[day], ca.snaps[day]); err != nil {
			t.Fatalf("alpha day %d: %v", day, err)
		}
		// bravo is a separate handle each day, as a campaign process
		// restarted daily would be.
		bravo, err := Open(bravoDir, WithWriter("bravo"), WithBaseInterval(3))
		if err != nil {
			t.Fatal(err)
		}
		if err := bravo.Append(cb.times[day].Add(12*time.Hour), cb.snaps[day]); err != nil {
			t.Fatalf("bravo day %d: %v", day, err)
		}
		if day%13 == 12 {
			if _, err := bravo.CompactWriter(context.Background(), "bravo", CompactOptions{MinSeal: 1}); err != nil {
				t.Fatalf("compacting bravo at day %d: %v", day, err)
			}
		}
		bravo.Close()
		alpha.Close()
		if alpha, err = Open(alphaDir, WithWriter("alpha")); err != nil {
			t.Fatal(err)
		}
		if day%13 == 12 {
			if _, err := alpha.CompactWriter(context.Background(), "alpha", CompactOptions{MinSeal: 1, BaseInterval: 5}); err != nil {
				t.Fatalf("compacting alpha at day %d: %v", day, err)
			}
		}
	}
	if err := alpha.Close(); err != nil {
		t.Fatal(err)
	}

	var names []string
	paths := make(map[string]string)
	for _, dir := range []string{alphaDir, bravoDir} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if n := e.Name(); strings.HasSuffix(n, ".log") || strings.HasSuffix(n, ".seg") {
				names = append(names, n)
				paths[n] = filepath.Join(dir, n)
			}
		}
	}
	sort.Strings(names)
	if len(names) != 2+2*4 {
		t.Fatalf("campaign left %v, want two tails and eight segments", names)
	}
	h := sha256.New()
	for _, n := range names {
		data, err := os.ReadFile(paths[n])
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(n))
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(data))))
		h.Write(data)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenStoreDigest {
		t.Fatalf("store bytes drifted: digest %s, recorded %s", got, goldenStoreDigest)
	}
}
