package scanengine

import (
	"context"
	"fmt"
	"testing"

	"rdnsprivacy/internal/dnswire"
)

// TestEventsStreamProperties is a property test over the result stream,
// the per-probe events a WithResultFunc consumer sees. For 100 seeded
// random sweeps (varying prefix count, prefix length, record density, and
// worker count) the stream must satisfy the invariants the CLI relies on:
//
//   - exactly one result per address of the sweep — no duplicates, no
//     omissions, none out of range — matching Stats.Probes;
//   - every call made from inside Scan, on its goroutine, none after it
//     returned;
//   - arrival order: a shard's results reach the callback in address
//     order, whatever the interleaving between shards;
//   - each result agrees with the snapshot: Found exactly for the
//     addresses in Records, with the same name.
func TestEventsStreamProperties(t *testing.T) {
	for seed := uint64(1); seed <= 100; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := testSplitmix(seed)
			// 1-3 prefixes of 26-24 bits, disjoint by construction
			// (distinct /16 per prefix index).
			nPrefixes := 1 + int(rng()%3)
			var targets []dnswire.Prefix
			records := map[dnswire.IPv4]dnswire.Name{}
			want := map[dnswire.IPv4]bool{}
			for pi := 0; pi < nPrefixes; pi++ {
				bits := 24 + int(rng()%3)
				base := dnswire.MustIPv4(fmt.Sprintf("10.%d.%d.0", seed%200, pi))
				p := dnswire.Prefix{Addr: base, Bits: bits}
				targets = append(targets, p)
				n := p.NumAddresses()
				for i := 0; i < n; i++ {
					ip := p.Nth(i)
					want[ip] = true
					// ~1/4 of addresses carry a PTR.
					if rng()%4 == 0 {
						records[ip] = dnswire.MustName(fmt.Sprintf("h%d.example.org", ip.Uint32()))
					}
				}
			}
			workers := 1 + int(rng()%8)

			// The callback runs on Scan's goroutine, so plain variables
			// suffice; the race detector objects if that stops being true.
			const shardBits = 25
			var (
				scanning  bool
				violation string
				seen      = map[dnswire.IPv4]int{}
				lastIn    = map[dnswire.IPv4]dnswire.IPv4{} // shard base -> last address seen
			)
			sc := New(newCountingSource(records),
				WithWorkers(workers), WithShardBits(shardBits),
				WithResultFunc(func(res Result) {
					if !scanning {
						violation = "result outside the Scan call"
					}
					seen[res.IP]++
					if name, ok := records[res.IP]; ok != res.Found || name != res.Name {
						violation = fmt.Sprintf("result %+v disagrees with the source", res)
					}
					// No target is coarser than a /24 or shares one, so the
					// /25 an address sits in names its shard.
					shard := dnswire.IPv4FromUint32(res.IP.Uint32() &^ (1<<(32-shardBits) - 1))
					if last, ok := lastIn[shard]; ok && last.Uint32() >= res.IP.Uint32() {
						violation = fmt.Sprintf("%s arrived after %s of the same shard", res.IP, last)
					}
					lastIn[shard] = res.IP
				}))

			scanning = true
			snap, err := sc.Scan(context.Background(), Request{Targets: targets})
			scanning = false
			if err != nil {
				t.Fatal(err)
			}
			if violation != "" {
				t.Fatal(violation)
			}
			for ip, n := range seen {
				if n != 1 {
					t.Fatalf("address %s emitted %d results, want 1", ip, n)
				}
				if !want[ip] {
					t.Fatalf("result for %s outside the sweep targets", ip)
				}
			}
			if len(seen) != len(want) {
				t.Fatalf("got %d unique results, want %d", len(seen), len(want))
			}
			if uint64(len(seen)) != snap.Stats.Probes {
				t.Fatalf("results=%d, Stats.Probes=%d", len(seen), snap.Stats.Probes)
			}
			if len(snap.Records) != len(records) || snap.Stats.Found != uint64(len(records)) {
				t.Fatalf("records=%d found=%d, want %d", len(snap.Records), snap.Stats.Found, len(records))
			}
		})
	}
}

// testSplitmix is a deterministic uint64 stream for property-test inputs.
func testSplitmix(seed uint64) func() uint64 {
	state := seed
	return func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
}
