package histstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/testutil"
)

// openReplayed opens a store the way a multi-writer store is always
// opened: every frame of every segment replayed. It is the oracle a
// sidecar open is held to.
func openReplayed(t *testing.T, dir string, opts ...Option) *Store {
	t.Helper()
	st, err := openStore(dir, opts, true)
	if err != nil {
		t.Fatalf("replaying open: %v", err)
	}
	return st
}

// sameIndex fails unless two name indexes hold the same postings, field
// by field, packed bytes included, and list each token under the same
// /24s. A newest interval that was reopened (first < 0) carries no
// meaning in its last and is not compared.
func sameIndex(t *testing.T, what string, a, b *nameIndex) {
	t.Helper()
	if len(a.blocks) != len(b.blocks) || len(a.addrs) != len(b.addrs) {
		t.Fatalf("%s: %d vs %d /24s, %d vs %d tokens", what, len(a.blocks), len(b.blocks), len(a.addrs), len(b.addrs))
	}
	type view struct {
		packed     []byte
		packedLast int32
		newest     interval
		open       int32
		active     int32
	}
	see := func(tp *tokenPostings) view {
		v := view{packed: tp.packed, packedLast: tp.packedLast, newest: tp.newest, open: tp.open, active: tp.active}
		if v.newest.first < 0 {
			v.newest = interval{first: -1}
		}
		if len(v.packed) == 0 {
			v.packed = nil
		}
		return v
	}
	for addr, pa := range a.blocks {
		pb := b.blocks[addr]
		if len(pa) != len(pb) {
			t.Fatalf("%s: %s holds %d vs %d tokens", what, dnswire.IPv4FromUint32(addr), len(pa), len(pb))
		}
		for tok, x := range pa {
			y, ok := pb[tok]
			if !ok {
				t.Fatalf("%s: token %q in %s on one side only", what, tok, dnswire.IPv4FromUint32(addr))
			}
			if va, vb := see(x), see(y); !reflect.DeepEqual(va, vb) {
				t.Fatalf("%s: postings of %q in %s differ:\n %+v\n %+v", what, tok, dnswire.IPv4FromUint32(addr), va, vb)
			}
		}
	}
	for _, ix := range []*nameIndex{a, b} {
		for tok, ta := range ix.addrs {
			if ta.token != tok {
				t.Fatalf("%s: token %q listed as %q", what, tok, ta.token)
			}
			for _, addr := range ta.addrs {
				if ix.blocks[addr][tok] == nil {
					t.Fatalf("%s: token %q listed in %s, which holds no posting of it", what, tok, dnswire.IPv4FromUint32(addr))
				}
			}
		}
	}
	for tok, ta := range a.addrs {
		tb := b.addrs[tok]
		if tb == nil {
			t.Fatalf("%s: token %q listed on one side only", what, tok)
		}
		x, y := slices.Clone(ta.addrs), slices.Clone(tb.addrs)
		slices.Sort(x)
		slices.Sort(y)
		if !slices.Equal(x, y) {
			t.Fatalf("%s: token %q listed in %d vs %d /24s", what, tok, len(x), len(y))
		}
	}
}

// sameAnswers fails unless two stores answer At, Range and Churn
// identically for every block they hold, over every snapshot.
func sameAnswers(t *testing.T, what string, a, b *Store) {
	t.Helper()
	ctx := context.Background()
	times := a.Times()
	if len(times) == 0 {
		return
	}
	from, to := times[0], times[len(times)-1]
	for _, p := range a.Blocks() {
		ra, errA := a.Range(p, from, to)
		rb, errB := b.Range(p, from, to)
		if errA != nil || errB != nil || !reflect.DeepEqual(ra, rb) {
			t.Fatalf("%s: Range(%s) differs (%v, %v)", what, p, errA, errB)
		}
		ca, errA := a.ChurnContext(ctx, p, from, to)
		cb, errB := b.ChurnContext(ctx, p, from, to)
		if errA != nil || errB != nil || !reflect.DeepEqual(ca, cb) {
			t.Fatalf("%s: Churn(%s) differs (%v, %v)", what, p, errA, errB)
		}
		for _, when := range times {
			for o := 0; o < 48; o++ {
				ip := dnswire.IPv4{p.Addr[0], p.Addr[1], p.Addr[2], byte(o)}
				na, oka, errA := a.At(ip, when)
				nb, okb, errB := b.At(ip, when)
				if na != nb || oka != okb || errA != nil || errB != nil {
					t.Fatalf("%s: At(%s, %s) = (%q, %v, %v) vs (%q, %v, %v)", what, ip, when, na, oka, errA, nb, okb, errB)
				}
			}
		}
	}
}

// checkSidecarOpen holds a read-only open of dir — sealed segments
// adopted through their sidecars — to a replaying one: stats, cadence,
// the index down to its packed bytes, and every answer. Then the same
// next append and compaction, through a writable open of each kind on a
// copy of the directory, must leave the same files, sidecars included.
func checkSidecarOpen(t *testing.T, what, dir string, next time.Time, snap scanengine.RecordSet) {
	t.Helper()
	got, err := Open(dir, WithReadOnly())
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want := openReplayed(t, dir, WithReadOnly())
	if sa, sb := got.Stats(), want.Stats(); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("%s: Stats differ:\n %+v\n %+v", what, sa, sb)
	}
	sameStore(t, what, got, want)
	sameIndex(t, what, got.names, want.names)
	sameAnswers(t, what, got, want)
	got.Close()
	want.Close()

	root := t.TempDir()
	forks := [2]string{filepath.Join(root, "adopted"), filepath.Join(root, "replayed")}
	for i, fork := range forks {
		copyStoreDir(t, dir, fork)
		var st *Store
		if i == 0 {
			if st, err = Open(fork); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		} else {
			st = openReplayed(t, fork)
		}
		if err := st.Append(next, snap); err != nil {
			t.Fatalf("%s: append: %v", what, err)
		}
		if _, err := st.CompactWriter(context.Background(), DefaultWriter, CompactOptions{MinSeal: 1}); err != nil {
			t.Fatalf("%s: compact: %v", what, err)
		}
		st.Close()
	}
	sameFiles(t, what+": next append and compaction", forks[0], forks[1])
}

// checkSidecarsFolded fails unless every sidecar in dir is, byte for
// byte, what folding its segment's frames gives.
func checkSidecarsFolded(t *testing.T, what, dir string) {
	t.Helper()
	m, err := readManifest(dir)
	if err != nil || m == nil {
		t.Fatalf("%s: manifest: %v", what, err)
	}
	for _, w := range m.writers {
		for _, ms := range w.segs {
			path := filepath.Join(dir, ms.file)
			f, size, seq, err := openSegmentFile(path, w.id, ms.first, ms.count)
			if err != nil {
				t.Fatal(err)
			}
			sn, err := foldSegment(seq, ms.first, ms.count)
			f.Close()
			if err != nil {
				t.Fatalf("%s: folding %s: %v", what, ms.file, err)
			}
			folded := sn.encode(segIdentity{writer: w.id, first: ms.first, count: ms.count, size: size, crc: seq.idx.crc})
			written, err := os.ReadFile(SidecarName(path))
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if !bytes.Equal(written, folded) {
				t.Fatalf("%s: sidecar of %s (%d bytes) is not its segment's fold (%d bytes)", what, ms.file, len(written), len(folded))
			}
		}
	}
}

// sidecarCampaign drives a seeded single-writer campaign: appends,
// compactions at mixed cadences (some with the next days appended between
// the seal and the commit), and reopens, calling check after each
// compaction. It returns the day the campaign stopped at.
func sidecarCampaign(t *testing.T, seed uint64, dir string, c *campaign, check func(what string, day int)) int {
	t.Helper()
	ctx := context.Background()
	rng := splitmix(seed)
	st, err := Open(dir, WithBaseInterval(1+int(rng()%7)))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { st.Close() }()
	day := 0
	for step := 0; day < len(c.snaps)-3; step++ {
		switch r := rng() % 10; {
		case r < 6:
			if err := st.Append(c.times[day], c.snaps[day]); err != nil {
				t.Fatal(err)
			}
			day++
		case r < 9:
			interleave := r == 8 && day < len(c.snaps)-5
			if interleave {
				n := 1 + int(rng()%2)
				testutil.SetFaultHook(func(point string) error {
					for ; point == "histstore.compact.sealed" && n > 0; n-- {
						if err := st.Append(c.times[day], c.snaps[day]); err != nil {
							t.Errorf("append between seal and commit: %v", err)
						}
						day++
					}
					return nil
				})
			}
			opts := CompactOptions{MinSeal: 1 + int(rng()%6), BaseInterval: 1 + int(rng()%12)}
			res, err := st.CompactWriter(ctx, DefaultWriter, opts)
			testutil.SetFaultHook(nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Skipped == "" {
				check(fmt.Sprintf("step %d: compaction sealing %d (interleaved %v)", step, res.Sealed, interleave), day)
			}
		default:
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if st, err = Open(dir); err != nil {
				t.Fatal(err)
			}
		}
	}
	return day
}

// TestSidecarOpenMatchesReplay: on seeded single-writer campaigns, an
// Open that adopts the sealed segments through their sidecars and replays
// only the tail holds exactly what an Open replaying every frame holds —
// after every compaction, with a non-empty tail, and across a seal whose
// commit an append overtook.
func TestSidecarOpenMatchesReplay(t *testing.T) {
	for _, seed := range []uint64{51, 52, 53} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			c := genCampaign(seed, 45)
			dir := filepath.Join(t.TempDir(), "hist")
			check := func(what string, day int) {
				checkSidecarOpen(t, what, dir, c.times[day], c.snaps[day])
			}
			day := sidecarCampaign(t, seed, dir, c, check)
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			// End on a tail that holds snapshots.
			for ; day < len(c.snaps)-1; day++ {
				if err := st.Append(c.times[day], c.snaps[day]); err != nil {
					t.Fatal(err)
				}
			}
			segs := st.Stats().Segments
			st.Close()
			if segs < 2 {
				t.Fatalf("the campaign sealed %d segments, want several", segs)
			}
			check("non-empty tail", day)
			ro, err := Open(dir, WithReadOnly())
			if err != nil {
				t.Fatal(err)
			}
			verifyStore(t, ro, &campaign{times: c.times[:day], snaps: c.snaps[:day], blocks: c.blocks}, splitmix(seed))
			ro.Close()
		})
	}
}

// TestSidecarIsSegmentFold: the sidecar a compaction derives from the
// live index is byte for byte the fold of the segment's own frames.
func TestSidecarIsSegmentFold(t *testing.T) {
	for _, seed := range []uint64{61, 62, 63, 64} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			c := genCampaign(seed, 60)
			dir := filepath.Join(t.TempDir(), "hist")
			sidecarCampaign(t, seed, dir, c, func(what string, _ int) { checkSidecarsFolded(t, what, dir) })
		})
	}
}

// sealedStore builds a single-writer store of four segments and a tail.
func sealedStore(t *testing.T, dir string, c *campaign) {
	t.Helper()
	st, err := Open(dir, WithBaseInterval(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.snaps {
		if err := st.Append(c.times[i], c.snaps[i]); err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 && i < 32 {
			if _, err := st.CompactWriter(context.Background(), DefaultWriter, CompactOptions{MinSeal: 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSidecarDamageFallsBack: a sidecar bit-flipped, truncated, deleted
// or copied from another segment is refused; Open folds that segment
// instead and holds exactly what replay holds. A read-only open leaves
// the damage in place; the owning writer's open repairs it.
func TestSidecarDamageFallsBack(t *testing.T) {
	c := genCampaign(71, 36)
	damages := map[string]func(t *testing.T, path, other string){
		"bit-flip": func(t *testing.T, path, _ string) { flipByte(t, path, 40) },
		"truncated": func(t *testing.T, path, _ string) {
			if err := os.Truncate(path, 30); err != nil {
				t.Fatal(err)
			}
		},
		"deleted": func(t *testing.T, path, _ string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		},
		"another segment's": func(t *testing.T, path, other string) {
			data, err := os.ReadFile(other)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, damage := range damages {
		for _, which := range []int{1, 3} { // a middle segment, the last
			t.Run(fmt.Sprintf("%s/seg%d", name, which), func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "hist")
				sealedStore(t, dir, c)
				m, err := readManifest(dir)
				if err != nil || len(m.writers[0].segs) != 4 {
					t.Fatalf("store layout: %v", err)
				}
				segs := m.writers[0].segs
				path := SidecarName(filepath.Join(dir, segs[which].file))
				damage(t, path, SidecarName(filepath.Join(dir, segs[which-1].file)))
				damaged, _ := os.ReadFile(path)

				ro, err := Open(dir, WithReadOnly())
				if err != nil {
					t.Fatal(err)
				}
				want := openReplayed(t, dir, WithReadOnly())
				sameStore(t, name, ro, want)
				sameIndex(t, name, ro.names, want.names)
				sameAnswers(t, name, ro, want)
				ro.Close()
				want.Close()
				if now, _ := os.ReadFile(path); !bytes.Equal(now, damaged) {
					t.Fatal("a read-only open rewrote the damaged sidecar")
				}

				st, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				st.Close()
				checkSidecarsFolded(t, name+": after the writer's open", dir)
			})
		}
	}
}

// TestSidecarsIgnoredOnceMultiWriter: a store that gains a second writer
// after its first wrote sidecars replays every frame — the merged view's
// index is no union of per-writer postings — so even sidecars that lie
// are ignored, and no compaction of a multi-writer store writes one.
func TestSidecarsIgnoredOnceMultiWriter(t *testing.T) {
	c := genCampaign(81, 36)
	dir := filepath.Join(t.TempDir(), "hist")
	sealedStore(t, dir, c)
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Valid for their segments, but empty: adopted, they would lose every
	// posting the sealed history holds.
	lying := make(map[string]bool)
	for _, ms := range m.writers[0].segs {
		lying[ms.file] = true
		path := filepath.Join(dir, ms.file)
		f, size, seq, err := openSegmentFile(path, DefaultWriter, ms.first, ms.count)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		lie := (&segNames{}).encode(segIdentity{writer: DefaultWriter, first: ms.first, count: ms.count, size: size, crc: seq.idx.crc})
		if err := os.WriteFile(SidecarName(path), lie, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	other := genCampaign(281, 10)
	beta, err := Open(dir, WithWriter("beta"), WithBaseInterval(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range other.snaps {
		if err := beta.Append(other.times[i].AddDate(0, 2, 0), other.snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"beta", DefaultWriter} {
		if res, err := beta.CompactWriter(context.Background(), id, CompactOptions{MinSeal: 1}); err != nil || res.Skipped != "" {
			t.Fatalf("compact %s: %+v, %v", id, res, err)
		}
	}
	beta.Close()

	got, err := Open(dir, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	want := openReplayed(t, dir, WithReadOnly())
	defer want.Close()
	sameStore(t, "two writers", got, want)
	sameIndex(t, "two writers", got.names, want.names)
	sameAnswers(t, "two writers", got, want)
	if len(got.FindName("brian")) == 0 {
		t.Fatal("FindName lost the sealed history: the lying sidecars were adopted")
	}
	after, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range after.writers {
		for _, ms := range w.segs {
			if _, err := os.Stat(SidecarName(filepath.Join(dir, ms.file))); !lying[ms.file] && !os.IsNotExist(err) {
				t.Errorf("multi-writer compaction wrote a sidecar for %s (%v)", ms.file, err)
			}
		}
	}
}

// TestSidecarSealRacesQueries: compactions clip the index into sidecars
// while queries read it and an appender waits its turn; run under -race.
// Every sidecar still comes out as its segment's fold, and the store
// opens through them to what replay holds.
func TestSidecarSealRacesQueries(t *testing.T) {
	c := genCampaign(93, 40)
	dir := filepath.Join(t.TempDir(), "hist")
	st, err := Open(dir, WithBaseInterval(3), WithCache(32))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 10; i++ {
		if err := st.Append(c.times[i], c.snaps[i]); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st.FindName("brian")
				if _, _, err := st.At(c.blocks[0].Addr, c.times[len(c.times)-1]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 10; i < len(c.snaps); i++ {
			if err := st.Append(c.times[i], c.snaps[i]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for k := 0; k < 6; k++ {
		if _, err := st.CompactWriter(context.Background(), DefaultWriter, CompactOptions{MinSeal: 1}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	checkSidecarsFolded(t, "after racing compactions", dir)
	got, err := Open(dir, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	want := openReplayed(t, dir, WithReadOnly())
	defer want.Close()
	sameStore(t, "after racing compactions", got, want)
	sameIndex(t, "after racing compactions", got.names, want.names)
}

// TestSidecarDisagreeingWithStatesRefolds: a sidecar valid for its
// segment but lying about the postings open at its end disagrees with
// the states the last segment decodes to; Open then folds every segment
// and holds exactly what replay holds.
func TestSidecarDisagreeingWithStatesRefolds(t *testing.T) {
	c := genCampaign(75, 36)
	dir := filepath.Join(t.TempDir(), "hist")
	sealedStore(t, dir, c)
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := m.writers[0].segs
	last := segs[len(segs)-1]
	path := filepath.Join(dir, last.file)
	f, size, seq, err := openSegmentFile(path, DefaultWriter, last.first, last.count)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	lie := (&segNames{}).encode(segIdentity{writer: DefaultWriter, first: last.first, count: last.count, size: size, crc: seq.idx.crc})
	if err := os.WriteFile(SidecarName(path), lie, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Open(dir, WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	want := openReplayed(t, dir, WithReadOnly())
	defer want.Close()
	sameStore(t, "lying last sidecar", got, want)
	sameIndex(t, "lying last sidecar", got.names, want.names)
}

// TestWriteSegmentSidecar: the replica's entry point builds a segment's
// missing sidecar as its fold, leaves a valid one alone, and refuses a
// damaged segment or an impossible span.
func TestWriteSegmentSidecar(t *testing.T) {
	c := genCampaign(77, 20)
	dir := filepath.Join(t.TempDir(), "hist")
	sealedStore(t, dir, c)
	m, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	g := m.writers[0].segs[1]
	path := filepath.Join(dir, g.file)
	written, err := os.ReadFile(SidecarName(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(SidecarName(path)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // builds it, then finds it valid
		if err := WriteSegmentSidecar(path, DefaultWriter, g.first, g.count); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(SidecarName(path)); err != nil || !bytes.Equal(got, written) {
			t.Fatalf("pass %d: rebuilt sidecar differs from the one compaction wrote (%v)", i, err)
		}
	}
	if err := WriteSegmentSidecar(path, DefaultWriter, maxSnapshots, 1); err == nil {
		t.Fatal("a span past the timeline's bound was accepted")
	}
	if err := os.Remove(SidecarName(path)); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, path, fi.Size()/2)
	if err := WriteSegmentSidecar(path, DefaultWriter, g.first, g.count); err == nil {
		t.Fatal("a damaged segment got a sidecar")
	}
	if _, err := os.Stat(SidecarName(path)); !os.IsNotExist(err) {
		t.Fatalf("a damaged segment's sidecar was written (%v)", err)
	}
}

// TestDecodeSidecarRejects walks the decoder's refusals one malformed
// field at a time, each with its CRC made right so the structure is what
// is refused.
func TestDecodeSidecarRejects(t *testing.T) {
	id := segIdentity{writer: DefaultWriter, first: 10, count: 5, size: 4096, crc: 0xfeedface}
	good := &segNames{
		tokens: []string{"brian", "iphone"},
		posts: []segPosting{
			{token: 0, addr: 0x0a000100, lo: 0, hi: 2},
			{token: 1, addr: 0x0a000100, lo: 2, hi: 3},
		},
		runs: []interval{{first: 10, last: 11}, {first: 13, last: 14}, {first: 12, last: 12}},
	}
	if tokenOrder(tokenKey("brian"), "brian", tokenKey("iphone"), "iphone") > 0 {
		good.tokens[0], good.tokens[1] = good.tokens[1], good.tokens[0]
	}
	if _, err := decodeSidecar(good.encode(id), id); err != nil {
		t.Fatalf("a well-formed sidecar refused: %v", err)
	}
	fix := func(b []byte) []byte {
		body := b[:len(b)-4]
		binary.LittleEndian.PutUint32(b[len(body):], crc32.ChecksumIEEE(body))
		return b
	}
	edit := func(f func(sn *segNames)) []byte {
		sn := &segNames{tokens: slices.Clone(good.tokens), posts: slices.Clone(good.posts), runs: slices.Clone(good.runs)}
		f(sn)
		return sn.encode(id)
	}
	other := id
	other.crc++
	cases := map[string][]byte{
		"bad magic":     fix(append([]byte("RDNSXXXX"), good.encode(id)[8:]...)),
		"bad crc":       func() []byte { b := good.encode(id); b[len(b)-1] ^= 1; return b }(),
		"other segment": good.encode(other),
		"short":         []byte("RDNSNAM1"),
		"trailing byte": fix(append(good.encode(id)[:len(good.encode(id))-4], 0, 0, 0, 0, 0)),
		"tokens unordered": edit(func(sn *segNames) {
			sn.tokens[0], sn.tokens[1] = sn.tokens[1], sn.tokens[0]
		}),
		"duplicate token": edit(func(sn *segNames) { sn.tokens[1] = sn.tokens[0] }),
		"empty token":     edit(func(sn *segNames) { sn.tokens[0] = "" }),
		"runs touch":      edit(func(sn *segNames) { sn.runs[1] = interval{first: 12, last: 14} }),
		"runs overlap":    edit(func(sn *segNames) { sn.runs[1] = interval{first: 11, last: 14} }),
		"run past span":   edit(func(sn *segNames) { sn.runs[1] = interval{first: 13, last: 15} }),
		"repeated /24": edit(func(sn *segNames) {
			sn.posts[1].token = 0
		}),
	}
	for name, data := range cases {
		if _, err := decodeSidecar(data, id); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
