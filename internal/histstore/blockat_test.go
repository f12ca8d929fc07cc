package histstore

import (
	"path/filepath"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/scanengine"
)

// TestBlockAtMatchesOwnCampaign pins BlockAt against the raw campaign
// oracle: two campaigns over the same blocks, each in a store of its own
// as two vantages keep them, each answering exactly its own campaign —
// block states and instants — across the tail/segment boundary.
func TestBlockAtMatchesOwnCampaign(t *testing.T) {
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
		if m, err := ro.BlockAt(tc.c.blocks[0], tc.c.times[0].Add(-time.Hour)); err != nil || m != nil {
			t.Fatalf("%s: pre-history BlockAt = (%v, %v)", tc.id, m, err)
		}
		verifyBlockAt(t, tc.id, ro, tc.c, splitmix(uint64(len(tc.id))+5))
		ro.Close()
	}
}

// TestBlockAtCopies pins that BlockAt hands out copies: mutating a
// returned map must not corrupt the store's cached or live state.
func TestBlockAtCopies(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	day := time.Date(2021, 5, 1, 13, 0, 0, 0, time.UTC)
	ip := dnswire.IPv4{10, 2, 3, 4}
	if err := st.Append(day, scanengine.RecordSet{ip: dnswire.MustName("a.example.net")}); err != nil {
		t.Fatal(err)
	}
	m, err := st.BlockAt(ip.Slash24(), day)
	if err != nil {
		t.Fatal(err)
	}
	if m[ip[3]] != dnswire.MustName("a.example.net") {
		t.Fatalf("BlockAt = %v", m)
	}
	m[ip[3]] = "tampered.example.net"
	delete(m, ip[3])
	if name, ok, err := st.At(ip, day); err != nil || !ok || name != dnswire.MustName("a.example.net") {
		t.Fatalf("after mutating copy: store At = (%q, %v, %v)", name, ok, err)
	}
	// Absent block yields nil, no error.
	if m, err := st.BlockAt(dnswire.MustPrefix("192.0.2.0/24"), day); err != nil || m != nil {
		t.Fatalf("absent BlockAt = (%v, %v)", m, err)
	}
}

// TestBlocksAndEmptyWindows: Blocks lists the block universe sorted by
// address, and BlockAt before history or of a block emptied since comes
// back empty rather than erroring.
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
	if st, err := ro.BlockAt(blocks[1], at.AddDate(0, 0, -1)); err != nil || st != nil {
		t.Fatalf("pre-history BlockAt = %v err = %v", st, err)
	}
	if st, err := ro.BlockAt(blocks[0], at.AddDate(0, 0, 1)); err != nil || len(st) != 0 {
		t.Fatalf("emptied BlockAt = %v err = %v", st, err)
	}
}
