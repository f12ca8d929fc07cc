package scanengine

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
)

// checkPacked requires bs to be in packed form: /24s in strictly ascending
// address order, none empty, each one's octets strictly ascending.
func checkPacked(t *testing.T, bs Blocks) {
	t.Helper()
	for i, b := range bs {
		if b.Prefix.Bits != 24 || b.Prefix.Addr[3] != 0 || len(b.Entries) == 0 {
			t.Fatalf("block %d: %s with %d entries", i, b.Prefix, len(b.Entries))
		}
		if i > 0 && bs[i-1].Prefix.Addr.Uint32() >= b.Prefix.Addr.Uint32() {
			t.Fatalf("block %s follows %s", b.Prefix, bs[i-1].Prefix)
		}
		for k := 1; k < len(b.Entries); k++ {
			if b.Entries[k-1].Octet >= b.Entries[k].Octet {
				t.Fatalf("block %s: octet %d follows %d", b.Prefix, b.Entries[k].Octet, b.Entries[k-1].Octet)
			}
		}
	}
}

// TestPackRoundTrips checks Pack over seeded random record sets whose
// addresses differ in every byte, so each radix pass runs, and in only
// the last one or two, so the passes every address shares are skipped:
// the blocks are in packed form and expand back to the set.
func TestPackRoundTrips(t *testing.T) {
	if Pack(RecordSet{}) != nil || len(Pack(nil).Records()) != 0 {
		t.Fatal("an empty set packs to blocks")
	}
	for seed := uint64(1); seed <= 50; seed++ {
		rng := testSplitmix(seed)
		mask := []uint32{0xffffffff, 0xffff, 0xff}[seed%3]
		recs := RecordSet{}
		for n := int(rng() % min(3000, uint64(mask))); len(recs) < n; {
			ip := dnswire.IPv4FromUint32(0x0a000000 | uint32(rng())&mask)
			recs[ip] = dnswire.Name(fmt.Sprintf("h%d.example.org", rng()%50))
		}
		bs := Pack(recs)
		checkPacked(t, bs)
		if bs.Len() != len(recs) || !reflect.DeepEqual(bs.Records(), recs) {
			t.Fatalf("seed %d: %d records packed to %d and back", seed, len(recs), bs.Len())
		}
	}
}

// TestPackRecordsLaterDuplicateWins pins how a shard enumeration that
// emits an address twice packs: like a map write, the later one wins,
// whether the two emissions arrive apart or next to each other.
func TestPackRecordsLaterDuplicateWins(t *testing.T) {
	a, b := dnswire.MustIPv4("10.0.1.7").Uint32(), dnswire.MustIPv4("10.0.0.9").Uint32()
	for _, rs := range [][]packed{
		{{a, "first."}, {b, "b."}, {a, "second."}},
		{{b, "b."}, {a, "first."}, {a, "second."}},
	} {
		got := packRecords(rs, make([]packed, len(rs)))
		checkPacked(t, got)
		want := RecordSet{dnswire.IPv4FromUint32(a): "second.", dnswire.IPv4FromUint32(b): "b."}
		if !reflect.DeepEqual(got.Records(), want) {
			t.Fatalf("packed %v to %v", rs, got.Records())
		}
	}
}

// TestShardSourceSnapshotIsPacked sweeps overlapping ShardSource targets
// that emit their records out of order: the snapshot's blocks are in
// packed form, the pieces of a /24 two shards share are joined, and
// Records is the same set.
func TestShardSourceSnapshotIsPacked(t *testing.T) {
	rng := testSplitmix(7)
	truth := RecordSet{}
	for len(truth) < 600 {
		truth[dnswire.IPv4FromUint32(0x0a070000|uint32(rng())&0x3ff)] = dnswire.Name(fmt.Sprintf("h%d.example.org", rng()%9))
	}
	src := &bulkSource{scan: func(shard dnswire.Prefix, emit func(Result)) {
		for ip, name := range truth { // map order: unsorted
			if shard.Contains(ip) {
				emit(Result{IP: ip, Name: name, Found: true})
			}
		}
	}}
	snap, err := New(src, WithWorkers(3)).Scan(context.Background(), Request{
		Targets: []dnswire.Prefix{
			dnswire.MustPrefix("10.7.0.0/23"), dnswire.MustPrefix("10.7.2.128/25"),
			dnswire.MustPrefix("10.7.2.0/25"), dnswire.MustPrefix("10.7.3.0/24"),
		},
		At: time.Unix(0, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	checkPacked(t, snap.Blocks)
	if len(snap.Blocks) != 4 || !reflect.DeepEqual(snap.Records, truth) || !reflect.DeepEqual(snap.Blocks.Records(), truth) {
		t.Fatalf("%d blocks, %d records, want 4 and %d", len(snap.Blocks), len(snap.Records), len(truth))
	}
}
