package scanengine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/simclock"
	"rdnsprivacy/internal/testutil"
)

// TestNegativeCacheTTLExpiryTable drives the negative cache through
// cache / expire cycles on a simulated clock: absences are served from
// cache strictly within the TTL, invalidated strictly past it, and found
// records never enter the cache at all. Run with -race: sweeps hammer the
// sharded cache from concurrent workers.
func TestNegativeCacheTTLExpiryTable(t *testing.T) {
	found := dnswire.MustIPv4("203.0.113.7")
	records := map[dnswire.IPv4]dnswire.Name{
		found: dnswire.MustName("alive.example.org"),
	}
	cases := []struct {
		name    string
		ttl     time.Duration
		advance time.Duration
		workers int
		// expectations for the sweep after the advance
		wantCached  bool // absences still served from cache
		wantEntries int  // live cache entries right after the advance
	}{
		{"within ttl cached", time.Hour, 30 * time.Minute, 1, true, 255},
		{"past ttl invalidated", time.Hour, 2 * time.Hour, 1, false, 0},
		{"short ttl expires fast", time.Minute, 2 * time.Minute, 1, false, 0},
		{"long ttl survives days", 72 * time.Hour, 24 * time.Hour, 1, true, 255},
		{"parallel workers within ttl", time.Hour, 30 * time.Minute, 8, true, 255},
		{"parallel workers past ttl", time.Hour, 2 * time.Hour, 8, false, 0},
	}
	target := []dnswire.Prefix{dnswire.MustPrefix("203.0.113.0/24")}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			clock := simclock.NewSimulated(time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC))
			src := newCountingSource(records)
			sc := New(src, WithWorkers(tc.workers), WithShardBits(26),
				WithNegativeTTL(tc.ttl), WithClock(clock))
			ctx := context.Background()

			// Sweep 1 populates the cache: 255 absences, 1 found record.
			snap, err := sc.Scan(ctx, Request{Targets: target})
			if err != nil {
				t.Fatal(err)
			}
			if snap.Stats.CacheHits != 0 || snap.Stats.Found != 1 {
				t.Fatalf("seed sweep: hits=%d found=%d", snap.Stats.CacheHits, snap.Stats.Found)
			}
			if got := sc.cache.Len(); got != 255 {
				t.Fatalf("cache entries after seed sweep = %d, want 255 (found records must not be cached)", got)
			}

			clock.Advance(tc.advance)
			if got := sc.cache.Len(); got != tc.wantEntries {
				t.Fatalf("cache entries after advance = %d, want %d", got, tc.wantEntries)
			}
			snap, err = sc.Scan(ctx, Request{Targets: target})
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantCached {
				if snap.Stats.CacheHits != 255 || src.totalProbes() != 256+1 {
					t.Fatalf("cached sweep: hits=%d probes=%d, want 255 hits and 257 probes",
						snap.Stats.CacheHits, src.totalProbes())
				}
			} else {
				if snap.Stats.CacheHits != 0 || src.totalProbes() != 2*256 {
					t.Fatalf("expired sweep: hits=%d probes=%d, want 0 hits and 512 probes",
						snap.Stats.CacheHits, src.totalProbes())
				}
			}
			// The found record is never cache-served.
			if got := src.probeCount(found); got != 2 {
				t.Fatalf("found record probed %d times, want 2 (once per sweep)", got)
			}
		})
	}
}

// TestMidShardCancellationConcurrentConsumers cancels a sweep mid-shard
// while consumer goroutines take its results off the result func one at a
// time — an unbuffered hand-off, so the sweep runs at the consumers' pace —
// and a second Scan call is queued behind the first. The cancelled sweep
// must return a partial snapshot without inferring changes, the queued
// sweep must run to completion unaffected, no result may be delivered
// twice within a sweep, and nothing may leak. Run with -race.
func TestMidShardCancellationConcurrentConsumers(t *testing.T) {
	cases := []struct {
		name      string
		workers   int
		consumers int
		cancelAt  int32
	}{
		{"single worker single consumer", 1, 1, 20},
		{"parallel workers fanout consumers", 4, 3, 50},
		{"more workers than shards", 8, 2, 8},
	}
	target := []dnswire.Prefix{dnswire.MustPrefix("10.0.0.0/24")}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			testutil.VerifyNoLeaks(t)
			scanCtx, cancelScan := context.WithCancel(context.Background())
			defer cancelScan()

			var probes atomic.Int32
			src := SourceFunc(func(ctx context.Context, ip dnswire.IPv4) Result {
				if probes.Add(1) == tc.cancelAt {
					cancelScan()
				}
				return Result{IP: ip, Name: "h.example.org.", Found: true}
			})
			results := make(chan Result)
			// /24 target at /26 shards: 4 shards of 64 addresses.
			sc := New(src, WithWorkers(tc.workers), WithShardBits(26),
				WithResultFunc(func(res Result) { results <- res }))

			var wg sync.WaitGroup
			var mu sync.Mutex
			seen := map[dnswire.IPv4]int{}
			for i := 0; i < tc.consumers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for res := range results {
						mu.Lock()
						seen[res.IP]++
						mu.Unlock()
					}
				}()
			}

			type scanOut struct {
				snap *Snapshot
				err  error
			}
			first := make(chan scanOut, 1)
			go func() {
				snap, err := sc.Scan(scanCtx, Request{Targets: target})
				first <- scanOut{snap, err}
			}()
			// Queue a second sweep behind the first once it is mid-flight,
			// so scanMu serialization under cancellation is exercised.
			for probes.Load() == 0 {
				time.Sleep(time.Millisecond)
			}
			second := make(chan scanOut, 1)
			go func() {
				snap, err := sc.Scan(context.Background(), Request{Targets: target})
				second <- scanOut{snap, err}
			}()

			out1 := <-first
			if !errors.Is(out1.err, context.Canceled) {
				t.Fatalf("cancelled sweep err = %v, want context.Canceled", out1.err)
			}
			if out1.snap == nil || !out1.snap.Partial {
				t.Fatalf("cancelled sweep snapshot = %+v, want partial", out1.snap)
			}
			if out1.snap.Changes != nil {
				t.Fatal("partial sweep must not infer changes")
			}

			out2 := <-second
			if out2.err != nil {
				t.Fatalf("queued sweep failed: %v", out2.err)
			}
			if out2.snap.Partial {
				t.Fatal("queued sweep must not inherit the first sweep's cancellation")
			}
			if got := len(out2.snap.Records); got != 256 {
				t.Fatalf("queued sweep found %d records, want 256", got)
			}
			if sc.prev == nil {
				t.Fatal("complete queued sweep must become the diff baseline")
			}

			// Both Scans have returned, so every result has been handed
			// over. The queued sweep delivered each address once; the
			// cancelled one delivered each record it kept once, and
			// nothing else more than once.
			close(results)
			wg.Wait()
			delivered := 0
			for ip, n := range seen {
				if n < 1 || n > 2 {
					t.Fatalf("address %s delivered %d times over two sweeps", ip, n)
				}
				delivered += n
			}
			if len(seen) != 256 {
				t.Fatalf("consumers saw %d addresses, want all 256", len(seen))
			}
			if want := len(out1.snap.Records) + 256; delivered != want {
				t.Fatalf("consumers took %d results, want %d (partial sweep's %d records + 256)",
					delivered, want, len(out1.snap.Records))
			}
		})
	}
}
