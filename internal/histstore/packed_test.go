package histstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/scanengine"
)

// groupByMap is how Append grouped a record set before snapshots arrived
// packed: a map of /24s, each block's entries sorted by octet, the blocks
// sorted by address. It is the oracle of TestPackedWritePathIsAppend.
func groupByMap(recs scanengine.RecordSet) scanengine.Blocks {
	groups := map[dnswire.Prefix][]scanengine.Entry{}
	for ip, name := range recs {
		groups[ip.Slash24()] = append(groups[ip.Slash24()], scanengine.Entry{Octet: ip[3], Name: name})
	}
	var out scanengine.Blocks
	for p, entries := range groups {
		slices.SortFunc(entries, func(a, b scanengine.Entry) int { return int(a.Octet) - int(b.Octet) })
		out = append(out, scanengine.Block{Prefix: p, Entries: entries})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Addr.Uint32() < out[j].Prefix.Addr.Uint32() })
	return out
}

// TestPackedWritePathIsAppend appends seeded campaigns three ways — Append
// of the record map, AppendBlocks of the blocks an engine sweep of the
// same records produced, and AppendBlocks of the map grouping Append used
// to do — and requires byte-identical tail files and the same store
// behind them. Each campaign has an empty snapshot and a block that
// empties and then returns.
func TestPackedWritePathIsAppend(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := genCampaign(seed, 30)
			c.snaps[9] = scanengine.RecordSet{}
			for _, day := range []int{17, 18} {
				for ip := range c.snaps[day] {
					if c.blocks[0].Contains(ip) {
						delete(c.snaps[day], ip)
					}
				}
			}
			var day int
			sweeper := scanengine.New(scanengine.SourceFunc(func(_ context.Context, ip dnswire.IPv4) scanengine.Result {
				name, ok := c.snaps[day][ip]
				return scanengine.Result{IP: ip, Name: name, Found: ok}
			}), scanengine.WithWorkers(2), scanengine.WithShardBits(24))

			dir := t.TempDir()
			ways := []string{"append", "swept", "grouped"}
			stores := make([]*Store, len(ways))
			for i, way := range ways {
				st, err := Open(filepath.Join(dir, way))
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				stores[i] = st
			}
			for day = range c.snaps {
				snap, err := sweeper.Scan(context.Background(), scanengine.Request{Targets: c.blocks})
				if err != nil {
					t.Fatal(err)
				}
				at := c.times[day]
				for i, err := range []error{
					stores[0].Append(at, c.snaps[day]),
					stores[1].AppendBlocks(at, snap.Blocks),
					stores[2].AppendBlocks(at, groupByMap(c.snaps[day])),
				} {
					if err != nil {
						t.Fatalf("day %d, %s: %v", day, ways[i], err)
					}
				}
			}
			want, err := os.ReadFile(tailPath(t, filepath.Join(dir, ways[0])))
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(ways); i++ {
				got, err := os.ReadFile(tailPath(t, filepath.Join(dir, ways[i])))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s wrote a %d-byte tail, append %d bytes", ways[i], len(got), len(want))
				}
				sameStore(t, ways[i], stores[i], stores[0])
			}
			verifyStore(t, stores[1], c, splitmix(seed))
		})
	}
}

// TestAppendBlocksRejectsUnpacked requires a snapshot that is not in
// packed form to be refused whole, before any of it reaches the tail.
func TestAppendBlocksRejectsUnpacked(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	a, b := dnswire.MustPrefix("10.0.1.0/24"), dnswire.MustPrefix("10.0.2.0/24")
	e := func(octets ...byte) []scanengine.Entry {
		var out []scanengine.Entry
		for _, o := range octets {
			out = append(out, scanengine.Entry{Octet: o, Name: "h.example.org."})
		}
		return out
	}
	day := genCampaign(1, 1).times[0]
	for name, bad := range map[string]scanengine.Blocks{
		"blocks out of order": {{Prefix: b, Entries: e(1)}, {Prefix: a, Entries: e(1)}},
		"block twice":         {{Prefix: a, Entries: e(1)}, {Prefix: a, Entries: e(2)}},
		"octets out of order": {{Prefix: a, Entries: e(5, 3)}},
		"octet twice":         {{Prefix: a, Entries: e(3, 3)}},
		"not a /24":           {{Prefix: dnswire.MustPrefix("10.0.0.0/16"), Entries: e(1)}},
	} {
		if err := st.AppendBlocks(day, bad); err == nil || errors.Is(err, ErrOutOfOrder) {
			t.Errorf("%s: AppendBlocks = %v, want a packed-form error", name, err)
		}
	}
	if st.Len() != 0 || st.Stats().TailBytes != int64(len(encodeTailHeader(0))) {
		t.Fatalf("a refused snapshot reached the store: %d snapshots, %d tail bytes", st.Len(), st.Stats().TailBytes)
	}
	if err := st.AppendBlocks(day, scanengine.Blocks{{Prefix: a, Entries: e(1, 2)}, {Prefix: b, Entries: e(9)}}); err != nil || st.Len() != 1 {
		t.Fatalf("a packed snapshot: %v, %d snapshots", err, st.Len())
	}
}
