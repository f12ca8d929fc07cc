package histstore

import (
	"path/filepath"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/scanengine"
)

// TestWriterViewMatchesOwnCampaign pins the single-writer lens against
// the raw campaign oracle: with two writers interleaved in one store,
// each writer's view answers exactly its own campaign — block states
// and instants — never the merged truth.
func TestWriterViewMatchesOwnCampaign(t *testing.T) {
	ca := genCampaign(21, 30)
	cb := genCampaign(221, 30)
	for i := range cb.times {
		cb.times[i] = cb.times[i].Add(30 * time.Minute)
	}

	path := filepath.Join(t.TempDir(), "hist")
	alpha, err := Open(path, WithWriter("alpha"), WithBaseInterval(5))
	if err != nil {
		t.Fatal(err)
	}
	beta, err := Open(path, WithWriter("beta"), WithBaseInterval(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := alpha.Append(ca.times[i], ca.snaps[i]); err != nil {
			t.Fatal(err)
		}
		if err := beta.Append(cb.times[i], cb.snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Seal part of alpha so views cross the tail/segment boundary.
	if _, err := alpha.CompactWriter(t.Context(), "alpha", CompactOptions{MinSeal: 5}); err != nil {
		t.Fatal(err)
	}
	if err := alpha.Close(); err != nil {
		t.Fatal(err)
	}
	if err := beta.Close(); err != nil {
		t.Fatal(err)
	}

	ro, err := Open(path, WithReadOnly(), WithCache(64))
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()

	if _, err := ro.WriterView("nobody"); err == nil {
		t.Fatal("WriterView(nobody) succeeded")
	}

	for _, tc := range []struct {
		id string
		c  *campaign
	}{{"alpha", ca}, {"beta", cb}} {
		v, err := ro.WriterView(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		times := v.Times()
		if len(times) != len(tc.c.times) {
			t.Fatalf("%s: %d instants, want %d", tc.id, len(times), len(tc.c.times))
		}
		for i := range times {
			if !times[i].Equal(tc.c.times[i]) {
				t.Fatalf("%s: times[%d] = %s, want %s", tc.id, i, times[i], tc.c.times[i])
			}
		}

		// Before the writer's history.
		if m, err := v.BlockAt(tc.c.blocks[0], tc.c.times[0].Add(-time.Hour)); err != nil || m != nil {
			t.Fatalf("%s: pre-history BlockAt = (%v, %v)", tc.id, m, err)
		}
		verifyWriterView(t, v, tc.c, splitmix(uint64(len(tc.id))+5))
	}
}

// TestWriterViewCopies pins that BlockAt hands out copies: mutating a
// returned map must not corrupt the store's cached or live state — the
// solo fast path aliases live maps internally.
func TestWriterViewCopies(t *testing.T) {
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
	v, err := st.WriterView(DefaultWriter)
	if err != nil {
		t.Fatal(err)
	}
	m, err := v.BlockAt(ip.Slash24(), day)
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
	if m, err := v.BlockAt(dnswire.MustPrefix("192.0.2.0/24"), day); err != nil || m != nil {
		t.Fatalf("absent BlockAt = (%v, %v)", m, err)
	}
}

// TestDivergence pins the live disagreement summary on a hand-built
// two-writer conflict, and full agreement on a solo store.
func TestDivergence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist")
	alpha, err := Open(path, WithWriter("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	beta, err := Open(path, WithWriter("beta"))
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2021, 5, 1, 13, 0, 0, 0, time.UTC)
	b := dnswire.MustPrefix("10.1.1.0/24")
	mk := func(o byte) dnswire.IPv4 { return dnswire.IPv4{b.Addr[0], b.Addr[1], b.Addr[2], o} }
	if err := alpha.Append(day, scanengine.RecordSet{
		mk(1): "shared.example.net", mk(2): "alpha-wins.example.net", mk(3): "only-alpha.example.net",
	}); err != nil {
		t.Fatal(err)
	}
	if err := beta.Append(day, scanengine.RecordSet{
		mk(1): "shared.example.net", mk(2): "beta-loses.example.net", mk(4): "only-beta.example.net",
	}); err != nil {
		t.Fatal(err)
	}
	if err := alpha.Close(); err != nil {
		t.Fatal(err)
	}
	if err := beta.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := Open(path, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()

	d := ro.Divergence()
	if d.Addresses != 4 {
		t.Fatalf("Addresses = %d, want 4", d.Addresses)
	}
	want := []WriterDivergence{
		{ID: "alpha", Records: 3, Agreements: 3, Conflicts: 0, Missing: 1, Exclusive: 1},
		{ID: "beta", Records: 3, Agreements: 2, Conflicts: 1, Missing: 1, Exclusive: 1},
	}
	if len(d.Writers) != len(want) {
		t.Fatalf("writers: %+v", d.Writers)
	}
	for i := range want {
		if d.Writers[i] != want[i] {
			t.Fatalf("writer %d = %+v, want %+v", i, d.Writers[i], want[i])
		}
	}

	solo, err := Open(filepath.Join(t.TempDir(), "solo"))
	if err != nil {
		t.Fatal(err)
	}
	defer solo.Close()
	if err := solo.Append(day, scanengine.RecordSet{mk(1): "a.example.net"}); err != nil {
		t.Fatal(err)
	}
	sd := solo.Divergence()
	if sd.Addresses != 1 || len(sd.Writers) != 1 || sd.Writers[0].Conflicts != 0 || sd.Writers[0].Missing != 0 || sd.Writers[0].Agreements != 1 {
		t.Fatalf("solo divergence: %+v", sd)
	}
}

// TestBlocksAndEmptyWindows: Blocks lists the block universe sorted by
// address across writers, and a view's BlockAt outside the writer's
// history or blocks comes back empty rather than erroring.
func TestBlocksAndEmptyWindows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist")
	wa, err := Open(path, WithWriter("wa"))
	if err != nil {
		t.Fatal(err)
	}
	wb, err := Open(path, WithWriter("wb"))
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2021, 7, 1, 13, 0, 0, 0, time.UTC)
	if err := wa.Append(at, scanengine.RecordSet{
		dnswire.IPv4{10, 9, 1, 7}: dnswire.MustName("a.example.net"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := wb.Append(at, scanengine.RecordSet{
		dnswire.IPv4{10, 2, 1, 7}: dnswire.MustName("b.example.net"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := wa.Close(); err != nil {
		t.Fatal(err)
	}
	if err := wb.Close(); err != nil {
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

	v, err := ro.WriterView("wa")
	if err != nil {
		t.Fatal(err)
	}
	if st, err := v.BlockAt(blocks[1], at.AddDate(0, 0, -1)); err != nil || st != nil {
		t.Fatalf("pre-history BlockAt = %v err = %v", st, err)
	}
	if st, err := v.BlockAt(blocks[0], at); err != nil || len(st) != 0 {
		t.Fatalf("foreign BlockAt = %v err = %v", st, err)
	}
}
