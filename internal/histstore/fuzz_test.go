package histstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/scanengine"
)

// FuzzDecodeBlock fuzzes the block codec: an on-disk history log may be
// truncated, bit-rotted, or not a history log at all, and the decoder
// must reject every such input with an error — never a panic, never an
// out-of-range octet, never an oversized name. The corpus seeds the
// shapes the strict checks exist for: truncated frames, corrupt CRCs,
// varint overflows, octet-gap overflow, and prefix-compression overrun.
// Go runs the seeds on every plain `go test`; `make fuzz` explores
// further.
func FuzzDecodeBlock(f *testing.F) {
	p := dnswire.MustPrefix("192.0.2.0/24")
	base := appendBaseBody(nil, 3, p, []baseEntry{
		{Octet: 1, Name: dnswire.MustName("brians-iphone.lan.example.net")},
		{Octet: 2, Name: dnswire.MustName("brians-ipad.lan.example.net")},
		{Octet: 250, Name: dnswire.MustName("printer.example.net")},
	})
	delta := appendDeltaBody(nil, 4, p, []deltaEntry{
		{kind: scanengine.RecordChanged, octet: 1,
			old: dnswire.MustName("brians-iphone.lan.example.net"),
			new: dnswire.MustName("brians-iphone-2.lan.example.net")},
		{kind: scanengine.RecordRemoved, octet: 250, old: dnswire.MustName("printer.example.net")},
	})

	// Well-formed frames of every kind.
	f.Add(appendFrame(nil, frameSnap, appendSnapBody(nil, 0, 1583038800)))
	f.Add(appendFrame(nil, frameBase, base))
	f.Add(appendFrame(nil, frameDelta, delta))
	// Shapes compaction writes that the append path never does: an empty
	// base (a block dying in-snapshot inside a sealed segment) and a
	// single-entry rebase from the sparse in-segment cadence.
	f.Add(appendFrame(nil, frameBase, appendBaseBody(nil, 9, p, nil)))
	f.Add(appendFrame(nil, frameBase, appendBaseBody(nil, 28, p, []baseEntry{
		{Octet: 250, Name: dnswire.MustName("printer.example.net")},
	})))
	// Truncations at interesting depths.
	fr := appendFrame(nil, frameBase, base)
	f.Add(fr[:1])
	f.Add(fr[:len(fr)/2])
	f.Add(fr[:len(fr)-1])
	// Corrupt CRC.
	bad := append([]byte(nil), fr...)
	bad[len(bad)-1] ^= 0x01
	f.Add(bad)
	// Unknown frame kind.
	f.Add([]byte{0x00, 0x01, 0xaa, 0, 0, 0, 0})
	// Length uvarint that never terminates (all continuation bits).
	f.Add([]byte{frameBase, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// Base body with an absurd entry count.
	f.Add(appendFrame(nil, frameBase, []byte{3, 192, 0, 2, 0xff, 0xff, 0x03}))
	// Delta body with an unknown change kind.
	mut := append([]byte(nil), delta...)
	mut[5] = 7
	f.Add(appendFrame(nil, frameDelta, mut))
	// Octet gap running past 255.
	f.Add(appendFrame(nil, frameBase, []byte{3, 192, 0, 2, 2, 200, 0, 1, 'a', 100, 0, 1, 'b'}))
	// Name sharing more bytes than its predecessor has.
	f.Add(appendFrame(nil, frameBase, []byte{3, 192, 0, 2, 1, 1, 50, 1, 'x'}))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, rest, err := decodeFrame(data)
		if err != nil {
			return // rejected: fine, as long as nothing panicked
		}
		switch fr.kind {
		case frameSnap:
			if snap, _, err := decodeSnapBody(fr.body); err == nil && snap < 0 {
				t.Fatalf("negative snapshot index %d accepted", snap)
			}
		case frameBase:
			if _, _, entries, err := decodeBaseBody(fr.body, nil, nil); err == nil {
				checkOctetOrder(t, len(entries), func(i int) byte { return entries[i].Octet })
				for _, e := range entries {
					if len(e.Name) > maxNameBytes {
						t.Fatalf("decoded %d-byte name", len(e.Name))
					}
				}
			}
		case frameDelta:
			if _, _, entries, err := decodeDeltaBody(fr.body, nil, nil); err == nil {
				checkOctetOrder(t, len(entries), func(i int) byte { return entries[i].octet })
				for _, e := range entries {
					if len(e.old) > maxNameBytes || len(e.new) > maxNameBytes {
						t.Fatal("decoded oversized name")
					}
				}
			}
		}
		// Whatever follows a valid frame is decoded independently; it must
		// also never panic.
		_, _, _ = decodeFrame(rest)
	})
}

// checkOctetOrder asserts the strictly-ascending octet invariant every
// accepted block must satisfy (the gap encoding makes violations
// unrepresentable; this guards the decoder against regressions).
func checkOctetOrder(t *testing.T, n int, octet func(int) byte) {
	t.Helper()
	for i := 1; i < n; i++ {
		if octet(i) <= octet(i-1) {
			t.Fatalf("octets out of order: entry %d is %d after %d", i, octet(i), octet(i-1))
		}
	}
}

// FuzzSegmentManifest fuzzes the store manifest codec: the manifest is
// the store's single commit point, so a damaged one must be rejected
// with an error — never a panic, never a half-trusted layout. Accepted
// manifests must satisfy every structural invariant (one writer, tiling
// segments, valid file names) and re-encode to the exact bytes that
// were accepted.
func FuzzSegmentManifest(f *testing.F) {
	// A store as compaction leaves it: sealed segments, a restarted tail.
	alpha := manifestWriter{id: "alpha", fileSeq: 4, tailFile: "tail-alpha-3.log", tailFirst: 30, segs: []manifestSegment{
		{file: "seg-alpha-1.seg", first: 0, count: 15},
		{file: "seg-alpha-2.seg", first: 15, count: 15},
	}}
	good := encodeManifest(&storeManifest{baseEvery: 7, writer: alpha})
	f.Add(good)
	// A fresh store.
	f.Add(encodeManifest(&storeManifest{baseEvery: 7, writer: manifestWriter{id: "main", fileSeq: 1, tailFile: "tail-main-0.log"}}))
	// Truncations and bit flips at interesting depths.
	f.Add(good[:8])
	f.Add(good[:len(good)/2])
	f.Add(good[:len(good)-1])
	for _, off := range []int{0, 9, len(good) / 2, len(good) - 2} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0xff
		f.Add(bad)
	}
	// Unsorted writers and a non-tiling segment chain (CRC-valid).
	f.Add(encodeManifestOf(7,
		manifestWriter{id: "zeta", fileSeq: 1, tailFile: "tail-zeta-0.log"},
		manifestWriter{id: "alpha", fileSeq: 1, tailFile: "tail-alpha-0.log"}))
	f.Add(encodeManifest(&storeManifest{baseEvery: 7, writer: manifestWriter{
		id: "a", fileSeq: 3, tailFile: "tail-a-2.log", tailFirst: 99, segs: []manifestSegment{
			{file: "seg-a-1.seg", first: 5, count: 10},
		}}}))
	// A path-traversal file name (CRC-valid).
	f.Add(encodeManifest(&storeManifest{baseEvery: 7, writer: manifestWriter{id: "a", fileSeq: 1, tailFile: "../../etc/passwd"}}))
	// Two well-formed writers (CRC-valid): a second writer, refused.
	f.Add(encodeManifestOf(7, alpha, manifestWriter{id: "beta", fileSeq: 1, tailFile: "tail-beta-0.log"}))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return // rejected: fine, as long as nothing panicked
		}
		if m.baseEvery <= 0 {
			t.Fatalf("accepted manifest with base interval %d", m.baseEvery)
		}
		w := m.writer
		if !validWriterID(w.id) {
			t.Fatalf("accepted invalid writer id %q", w.id)
		}
		if !validStoreFileName(w.tailFile) {
			t.Fatalf("accepted tail file name %q", w.tailFile)
		}
		next := 0
		for _, g := range w.segs {
			if !validStoreFileName(g.file) {
				t.Fatalf("accepted segment file name %q", g.file)
			}
			if g.first != next || g.count <= 0 {
				t.Fatalf("accepted non-tiling segment chain: %+v", w.segs)
			}
			next = g.first + g.count
		}
		if w.tailFirst != next {
			t.Fatalf("accepted tail first %d after segments end at %d", w.tailFirst, next)
		}
		// Round trip: an accepted manifest re-encodes byte-identically,
		// so rewriting a manifest can never drift the layout.
		if got := encodeManifest(m); string(got) != string(data) {
			t.Fatalf("manifest round trip drifted:\n in  %x\n out %x", data, got)
		}
	})
}

// strictDecodeSegmentFooter is the footer decoder the flat index replaced,
// kept as FuzzSegmentFooter's reference: one map entry and one slice per
// block, every check in the order it was written.
func strictDecodeSegmentFooter(footer []byte, firstSnap, count int, frameStart, footerOff int64) (map[dnswire.Prefix][]blockRef, error) {
	r := &byteReader{b: footer}
	nBlocks, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nBlocks > 1<<24 {
		return nil, corruptf("segment footer claims %d blocks", nBlocks)
	}
	refs := make(map[dnswire.Prefix][]blockRef)
	var prevAddr uint32
	for bi := uint64(0); bi < nBlocks; bi++ {
		hi, err := r.bytes(3)
		if err != nil {
			return nil, err
		}
		p := dnswire.Prefix{Addr: dnswire.IPv4{hi[0], hi[1], hi[2], 0}, Bits: 24}
		if addr := p.Addr.Uint32(); bi > 0 && addr <= prevAddr {
			return nil, corruptf("segment footer blocks out of order at %s", p)
		} else {
			prevAddr = addr
		}
		nRefs, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if nRefs == 0 || nRefs > uint64(count) {
			return nil, corruptf("segment footer block %s claims %d refs over %d snapshots", p, nRefs, count)
		}
		var rs []blockRef
		snap, off := firstSnap, int64(0)
		for ri := uint64(0); ri < nRefs; ri++ {
			gap, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if ri > 0 && gap == 0 {
				return nil, corruptf("segment footer block %s has a zero snapshot gap", p)
			}
			snap += int(gap)
			if snap < firstSnap || snap > firstSnap+count-1 {
				return nil, corruptf("segment footer block %s ref at snapshot %d outside [%d,%d]", p, snap, firstSnap, firstSnap+count-1)
			}
			kind, err := r.byte()
			if err != nil {
				return nil, err
			}
			if kind != frameBase && kind != frameDelta {
				return nil, corruptf("segment footer block %s has frame kind 0x%02x", p, kind)
			}
			offGap, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if ri == 0 {
				off = int64(offGap)
			} else {
				if offGap == 0 {
					return nil, corruptf("segment footer block %s has a zero offset gap", p)
				}
				off += int64(offGap)
			}
			length, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if off < frameStart || length == 0 || length > 1<<24 || off+int64(length) > footerOff {
				return nil, corruptf("segment footer block %s ref [%d,+%d) outside frame region", p, off, length)
			}
			rs = append(rs, blockRef{snap: snap, kind: kind, off: off, length: int(length)})
		}
		if rs[0].kind != frameBase {
			return nil, corruptf("segment block %s does not open with a base frame", p)
		}
		refs[p] = rs
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return refs, nil
}

// FuzzSegmentFooter fuzzes the sealed-segment footer index decoder with
// arbitrary bytes against a fixed geometry: rejected or accepted, never
// a panic; the flat decoder must accept exactly what the strict reference
// accepts and hold the same refs; accepted indexes must stay inside the
// frame region with every block opening on a base frame, and must survive
// a trip through encodeSegmentFooter unchanged.
func FuzzSegmentFooter(f *testing.F) {
	const (
		firstSnap  = 10
		count      = 15
		frameStart = 40
		footerOff  = 4000
	)
	refs := map[dnswire.Prefix][]blockRef{
		dnswire.MustPrefix("192.0.2.0/24"): {
			{snap: 10, kind: frameBase, off: 40, length: 120},
			{snap: 12, kind: frameDelta, off: 200, length: 30},
			{snap: 14, kind: frameBase, off: 500, length: 90},
		},
		dnswire.MustPrefix("198.51.100.0/24"): {
			{snap: 11, kind: frameBase, off: 160, length: 40},
		},
	}
	good := encodeSegmentFooter(refs, firstSnap)
	f.Add(good)
	f.Add(good[:len(good)/2])
	for _, off := range []int{0, 4, len(good) - 1} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0xff
		f.Add(bad)
	}
	// A block count the bytes cannot back, a block opening on a delta, and
	// an empty directory.
	f.Add([]byte{0xff, 0xff, 0xff, 0x07})
	f.Add(encodeSegmentFooter(map[dnswire.Prefix][]blockRef{
		dnswire.MustPrefix("192.0.2.0/24"): {{snap: 10, kind: frameDelta, off: 40, length: 120}},
	}, firstSnap))
	f.Add([]byte{0})

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := strictDecodeSegmentFooter(data, firstSnap, count, frameStart, footerOff)
		ix, err := decodeSegmentFooter(data, firstSnap, count, frameStart, footerOff)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("flat decoder says %v, strict decoder says %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !ix.matches(want) {
			t.Fatalf("flat decoder holds %+v, strict decoder read %v", ix.dir, want)
		}
		held := make(map[dnswire.Prefix][]blockRef)
		for i := range ix.dir {
			p, rs := ix.block(i, nil)
			held[p] = rs
			if got := ix.lookup(p); !slices.Equal(got, rs) {
				t.Fatalf("lookup(%s) = %v; block %d is %v", p, got, i, rs)
			}
			if i > 0 && ix.dir[i].addr <= ix.dir[i-1].addr {
				t.Fatalf("accepted unsorted blocks %v", ix.dir)
			}
			if len(rs) == 0 || rs[0].kind != frameBase {
				t.Fatalf("accepted block %s without an opening base", p)
			}
			for i, r := range rs {
				if r.snap < firstSnap || r.snap >= firstSnap+count {
					t.Fatalf("accepted out-of-range snap %d", r.snap)
				}
				if r.off < frameStart || r.off+int64(r.length) > footerOff {
					t.Fatalf("accepted out-of-bounds ref %+v", r)
				}
				if i > 0 && (rs[i].snap <= rs[i-1].snap || rs[i].off <= rs[i-1].off) {
					t.Fatalf("accepted non-monotonic refs %+v", rs)
				}
			}
		}
		if absent := dnswire.MustPrefix("203.0.113.0/24"); held[absent] == nil {
			if got := ix.lookup(absent); got != nil {
				t.Fatalf("lookup of an absent block = %v", got)
			}
		}
		again, err := decodeSegmentFooter(encodeSegmentFooter(held, firstSnap), firstSnap, count, frameStart, footerOff)
		if err != nil || !again.matches(held) {
			t.Fatalf("round trip drifted: %v", err)
		}
	})
}

// FuzzDecodeSidecar fuzzes the given-name sidecar decoder, seeded with a
// sidecar a compaction wrote. A sidecar is read from disk at every Open,
// so arbitrary bytes must be refused, never panic; each input is also
// tried with its CRC made right, so the fuzzer reaches the structure
// behind it. Whatever is accepted keeps every invariant the join relies
// on, survives an encode/decode round trip unchanged, and is refused
// under any other segment's identity.
func FuzzDecodeSidecar(f *testing.F) {
	dir := filepath.Join(f.TempDir(), "hist")
	st, err := Open(dir, WithBaseInterval(3))
	if err != nil {
		f.Fatal(err)
	}
	c := genCampaign(91, 12)
	for i := range c.snaps {
		if err := st.Append(c.times[i], c.snaps[i]); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := st.CompactWriter(context.Background(), DefaultWriter, CompactOptions{MinSeal: 1}); err != nil {
		f.Fatal(err)
	}
	g := st.w.segs[0]
	id := g.identity()
	st.Close()
	real, err := os.ReadFile(SidecarName(g.path))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := decodeSidecar(real, id); err != nil {
		f.Fatalf("the seed does not decode: %v", err)
	}
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add((&segNames{}).encode(id))
	bad := append([]byte(nil), real...)
	bad[len(bad)/2] ^= 0x40
	f.Add(bad)

	others := []segIdentity{id, id, id, id, id}
	others[0].writer = "other"
	others[1].first++
	others[2].count++
	others[3].size++
	others[4].crc ^= 1

	f.Fuzz(func(t *testing.T, data []byte) {
		fixed := append([]byte(nil), data...)
		if len(fixed) >= 4 {
			body := fixed[:len(fixed)-4]
			binary.LittleEndian.PutUint32(fixed[len(body):], crc32.ChecksumIEEE(body))
		}
		for _, in := range [][]byte{data, fixed} {
			sn, err := decodeSidecar(in, id)
			if err != nil {
				continue
			}
			last := int32(id.first + id.count - 1)
			for i, ps := range sn.posts {
				if i > 0 {
					prev := sn.posts[i-1]
					if ps.token < prev.token || (ps.token == prev.token && ps.addr <= prev.addr) {
						t.Fatalf("accepted postings out of order: %+v after %+v", ps, prev)
					}
				}
				runs := sn.runs[ps.lo:ps.hi]
				if len(runs) == 0 || ps.addr&0xff != 0 {
					t.Fatalf("accepted posting %+v", ps)
				}
				for k, r := range runs {
					if r.first < int32(id.first) || r.last > last || r.first > r.last || (k > 0 && r.first <= runs[k-1].last+1) {
						t.Fatalf("accepted runs %v in [%d, %d]", runs, id.first, last)
					}
				}
			}
			for i := 1; i < len(sn.tokens); i++ {
				if tokenOrder(sn.keys[i-1], sn.tokens[i-1], sn.keys[i], sn.tokens[i]) >= 0 {
					t.Fatalf("accepted tokens out of order: %q, %q", sn.tokens[i-1], sn.tokens[i])
				}
			}
			enc := sn.encode(id)
			again, err := decodeSidecar(enc, id)
			if err != nil {
				t.Fatalf("re-encoded sidecar refused: %v", err)
			}
			if !reflect.DeepEqual(again, sn) || !bytes.Equal(again.encode(id), enc) {
				t.Fatal("encode/decode round trip drifted")
			}
			for _, other := range others {
				if _, err := decodeSidecar(in, other); err == nil {
					t.Fatalf("a sidecar of %+v accepted as one of %+v", id, other)
				}
			}
		}
	})
}

// lookup decodes every one of p's refs in the segment: nil when it has
// none.
func (ix *segIndex) lookup(p dnswire.Prefix) []blockRef {
	var out []blockRef
	for c := ix.refs(p); c.left > 0; {
		out = append(out, c.next())
	}
	return out
}
