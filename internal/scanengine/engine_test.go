package scanengine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/simclock"
)

// countingSource answers from a fixed record map and counts probes.
type countingSource struct {
	mu      sync.Mutex
	records map[dnswire.IPv4]dnswire.Name
	probes  map[dnswire.IPv4]int
}

func newCountingSource(records map[dnswire.IPv4]dnswire.Name) *countingSource {
	return &countingSource{records: records, probes: make(map[dnswire.IPv4]int)}
}

func (s *countingSource) LookupPTR(ctx context.Context, ip dnswire.IPv4) Result {
	s.mu.Lock()
	s.probes[ip]++
	name, ok := s.records[ip]
	s.mu.Unlock()
	return Result{IP: ip, Name: name, Found: ok}
}

func (s *countingSource) probeCount(ip dnswire.IPv4) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.probes[ip]
}

func (s *countingSource) totalProbes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.probes {
		n += c
	}
	return n
}

func TestPlanShardsSplitsCoarseTargets(t *testing.T) {
	got := planShards([]dnswire.Prefix{dnswire.MustPrefix("10.0.0.0/14")}, 16, true)
	want := []string{"10.0.0.0/16", "10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16"}
	if len(got) != len(want) {
		t.Fatalf("planShards returned %d shards, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].String() != w {
			t.Errorf("shard %d = %s, want %s", i, got[i], w)
		}
	}
	// Finer-than-shard targets stay whole.
	got = planShards([]dnswire.Prefix{dnswire.MustPrefix("192.0.2.0/24")}, 16, true)
	if len(got) != 1 || got[0].String() != "192.0.2.0/24" {
		t.Fatalf("fine target reshaped: %v", got)
	}
	// Bulk-enumeration sources get targets whole regardless of size.
	got = planShards([]dnswire.Prefix{dnswire.MustPrefix("10.0.0.0/14")}, 16, false)
	if len(got) != 1 || got[0].String() != "10.0.0.0/14" {
		t.Fatalf("no-split target reshaped: %v", got)
	}
}

func TestShardBoundaryCoverage(t *testing.T) {
	// Sweep a /22 in /24 shards; every shard's first and last address —
	// and everything between — must be probed exactly once.
	target := dnswire.MustPrefix("10.9.0.0/22")
	records := map[dnswire.IPv4]dnswire.Name{
		dnswire.MustIPv4("10.9.0.0"):   dnswire.MustName("first.example.org"),
		dnswire.MustIPv4("10.9.3.255"): dnswire.MustName("last.example.org"),
	}
	src := newCountingSource(records)
	sc := New(src, WithWorkers(4), WithShardBits(24))
	snap, err := sc.Scan(context.Background(), Request{Targets: []dnswire.Prefix{target}})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Shards) != 4 {
		t.Fatalf("shards = %d, want 4", len(snap.Shards))
	}
	for _, st := range snap.Shards {
		if !st.Done || st.Probes != 256 {
			t.Fatalf("shard %s: done=%v probes=%d, want 256", st.Shard, st.Done, st.Probes)
		}
		for _, edge := range []dnswire.IPv4{st.Shard.First(), st.Shard.Last()} {
			if n := src.probeCount(edge); n != 1 {
				t.Errorf("edge %s probed %d times, want 1", edge, n)
			}
		}
	}
	if got := src.totalProbes(); got != target.NumAddresses() {
		t.Fatalf("total probes = %d, want %d", got, target.NumAddresses())
	}
	if snap.Stats.Probes != uint64(target.NumAddresses()) {
		t.Fatalf("stats probes = %d, want %d", snap.Stats.Probes, target.NumAddresses())
	}
	if len(snap.Records) != 2 || snap.Stats.Found != 2 {
		t.Fatalf("records = %d (found %d), want 2", len(snap.Records), snap.Stats.Found)
	}
	for ip, name := range records {
		if snap.Records[ip] != name {
			t.Errorf("record %s = %q, want %q", ip, snap.Records[ip], name)
		}
	}
}

func TestCancellationLeaksNoGoroutines(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var started atomic.Int32
	src := SourceFunc(func(ctx context.Context, ip dnswire.IPv4) Result {
		started.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return Result{IP: ip}
	})
	before := runtime.NumGoroutine()
	sc := New(src, WithWorkers(8), WithShardBits(24))
	scanDone := make(chan error, 1)
	go func() {
		_, err := sc.Scan(ctx, Request{Targets: []dnswire.Prefix{dnswire.MustPrefix("10.0.0.0/16")}})
		scanDone <- err
	}()
	// Wait until workers are mid-probe, then cancel.
	for started.Load() < 8 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)
	err := <-scanDone
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// All workers and the merger must be reaped. NumGoroutine is noisy;
	// poll until the count returns to the baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancellation",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCancelledSweepReturnsPartialSnapshot(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var probes atomic.Int32
	src := SourceFunc(func(ctx context.Context, ip dnswire.IPv4) Result {
		if probes.Add(1) == 100 {
			cancel()
		}
		return Result{IP: ip, Name: "h.example.org.", Found: true}
	})
	sc := New(src, WithWorkers(2), WithShardBits(24))
	snap, err := sc.Scan(ctx, Request{Targets: []dnswire.Prefix{dnswire.MustPrefix("10.0.0.0/16")}})
	if err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
	if snap == nil || !snap.Partial {
		t.Fatalf("snapshot = %+v, want partial", snap)
	}
	if snap.Changes != nil {
		t.Fatal("partial sweep must not infer changes")
	}
	if sc.Previous() != nil {
		t.Fatal("partial sweep must not become the diff baseline")
	}
}

// TestRateSpacesProbesAcrossWorkers: WithRate is one gate shared by every
// worker, so n probes take at least n-1 intervals however many workers run
// them, and a sweep cancelled while a probe waits for its slot ends partial
// instead of sitting the wait out.
func TestRateSpacesProbesAcrossWorkers(t *testing.T) {
	var probes atomic.Int32
	src := SourceFunc(func(ctx context.Context, ip dnswire.IPv4) Result {
		probes.Add(1)
		return Result{IP: ip}
	})
	targets := []dnswire.Prefix{dnswire.MustPrefix("10.0.0.0/30"), dnswire.MustPrefix("10.0.1.0/30")}
	const qps = 200
	start := time.Now()
	if _, err := New(src, WithWorkers(4), WithRate(qps)).Scan(context.Background(), Request{Targets: targets}); err != nil {
		t.Fatal(err)
	}
	if min := 7 * time.Second / qps; probes.Load() != 8 || time.Since(start) < min {
		t.Fatalf("%d probes in %v at %d qps, want 8 in at least %v", probes.Load(), time.Since(start), qps, min)
	}

	// One probe a second: the first goes out at once, the second waits for
	// its slot. Sitting that wait out would end in a second probe.
	probes.Store(0)
	ctx, cancel := context.WithCancel(context.Background())
	first := make(chan struct{})
	slow := SourceFunc(func(ctx context.Context, ip dnswire.IPv4) Result {
		if probes.Add(1) == 1 {
			close(first)
		}
		return Result{IP: ip}
	})
	go func() {
		<-first
		cancel()
	}()
	snap, err := New(slow, WithWorkers(1), WithRate(1)).Scan(ctx, Request{Targets: targets[:1]})
	if err == nil || snap == nil || !snap.Partial {
		t.Fatalf("cancelled rate-limited sweep: snapshot %+v, err %v", snap, err)
	}
	if probes.Load() != 1 {
		t.Fatalf("%d probes went out, want only the first", probes.Load())
	}
}

func TestNegativeCacheTTLExpiry(t *testing.T) {
	clock := simclock.NewSimulated(time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC))
	ip := dnswire.MustIPv4("203.0.113.7")
	src := newCountingSource(nil) // everything absent
	sc := New(src, WithWorkers(1), WithNegativeTTL(time.Hour), WithClock(clock))
	target := []dnswire.Prefix{dnswire.MustPrefix("203.0.113.0/24")}

	snap, err := sc.Scan(context.Background(), Request{Targets: target})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Stats.CacheHits != 0 || src.probeCount(ip) != 1 {
		t.Fatalf("first sweep: hits=%d probes=%d", snap.Stats.CacheHits, src.probeCount(ip))
	}
	if got := sc.cache.Len(); got != 256 {
		t.Fatalf("cache entries = %d, want 256", got)
	}

	// Within the TTL the absences are served from cache.
	snap, err = sc.Scan(context.Background(), Request{Targets: target})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Stats.CacheHits != 256 || src.probeCount(ip) != 1 {
		t.Fatalf("cached sweep: hits=%d probes=%d", snap.Stats.CacheHits, src.probeCount(ip))
	}

	// Past the TTL every entry is invalidated and re-probed.
	clock.Advance(2 * time.Hour)
	if got := sc.cache.Len(); got != 0 {
		t.Fatalf("live entries after TTL = %d, want 0", got)
	}
	snap, err = sc.Scan(context.Background(), Request{Targets: target})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Stats.CacheHits != 0 || src.probeCount(ip) != 2 {
		t.Fatalf("expired sweep: hits=%d probes=%d", snap.Stats.CacheHits, src.probeCount(ip))
	}
}

func TestIncrementalDiffAcrossSweeps(t *testing.T) {
	records := map[dnswire.IPv4]dnswire.Name{
		dnswire.MustIPv4("10.0.0.1"): dnswire.MustName("stays.example.org"),
		dnswire.MustIPv4("10.0.0.2"): dnswire.MustName("leaves.example.org"),
		dnswire.MustIPv4("10.0.0.3"): dnswire.MustName("old.example.org"),
	}
	src := newCountingSource(records)
	sc := New(src, WithWorkers(2))
	target := []dnswire.Prefix{dnswire.MustPrefix("10.0.0.0/24")}
	ctx := context.Background()

	snap, err := sc.Scan(ctx, Request{Targets: target})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Changes != nil {
		t.Fatalf("first sweep has no baseline, got %d changes", len(snap.Changes))
	}

	src.mu.Lock()
	delete(src.records, dnswire.MustIPv4("10.0.0.2"))
	src.records[dnswire.MustIPv4("10.0.0.3")] = dnswire.MustName("new.example.org")
	src.records[dnswire.MustIPv4("10.0.0.4")] = dnswire.MustName("joins.example.org")
	src.mu.Unlock()

	snap, err = sc.Scan(ctx, Request{Targets: target})
	if err != nil {
		t.Fatal(err)
	}
	want := []Change{
		{Kind: RecordRemoved, IP: dnswire.MustIPv4("10.0.0.2"), Old: dnswire.MustName("leaves.example.org")},
		{Kind: RecordChanged, IP: dnswire.MustIPv4("10.0.0.3"), Old: dnswire.MustName("old.example.org"), New: dnswire.MustName("new.example.org")},
		{Kind: RecordAdded, IP: dnswire.MustIPv4("10.0.0.4"), New: dnswire.MustName("joins.example.org")},
	}
	if len(snap.Changes) != len(want) {
		t.Fatalf("changes = %+v, want %d", snap.Changes, len(want))
	}
	for i, w := range want {
		if snap.Changes[i] != w {
			t.Errorf("change %d = %+v, want %+v", i, snap.Changes[i], w)
		}
	}
}

// TestEventsStreamLifecycle follows the result stream across a scanner's
// life: every sweep streams its own results, all of them before Scan
// returns, and the negative cache's hits are results like any other even
// though they never reach the source.
func TestEventsStreamLifecycle(t *testing.T) {
	records := map[dnswire.IPv4]dnswire.Name{
		dnswire.MustIPv4("10.0.0.1"): dnswire.MustName("a.example.org"),
	}
	src := newCountingSource(records)
	var got []Result
	sc := New(src, WithWorkers(2), WithShardBits(24), WithNegativeTTL(time.Hour),
		WithResultFunc(func(res Result) { got = append(got, res) }))
	req := Request{Targets: []dnswire.Prefix{dnswire.MustPrefix("10.0.0.0/22")}}

	snap, err := sc.Scan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1024 || snap.Stats.Probes != 1024 {
		t.Fatalf("first sweep streamed %d results for %d probes, want 1024", len(got), snap.Stats.Probes)
	}
	found := 0
	for _, res := range got {
		if res.Cached {
			t.Fatalf("first sweep served %s from an empty cache", res.IP)
		}
		if res.Found {
			found++
		}
	}
	if found != 1 {
		t.Fatalf("found results = %d, want 1", found)
	}

	got = got[:0]
	snap, err = sc.Scan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	cached := 0
	for _, res := range got {
		if res.Cached {
			cached++
		}
	}
	if len(got) != 1024 || cached != 1023 || snap.Stats.CacheHits != 1023 {
		t.Fatalf("second sweep streamed %d results, %d cached (Stats.CacheHits %d), want 1024 and 1023",
			len(got), cached, snap.Stats.CacheHits)
	}
	if src.totalProbes() != 1024+1 {
		t.Fatalf("source saw %d probes, want 1025: cached results must not reach it", src.totalProbes())
	}
}

func TestShardSourceFastPath(t *testing.T) {
	// A source that also implements ShardSource must be enumerated in
	// bulk: targets stay whole and per-address probing never happens.
	calls := make(map[string]int)
	var mu sync.Mutex
	src := &bulkSource{
		scan: func(shard dnswire.Prefix, emit func(Result)) {
			mu.Lock()
			calls[shard.String()]++
			mu.Unlock()
			emit(Result{IP: shard.First(), Name: dnswire.MustName("bulk.example.org"), Found: true})
		},
	}
	sc := New(src, WithWorkers(4))
	snap, err := sc.Scan(context.Background(), Request{Targets: []dnswire.Prefix{
		dnswire.MustPrefix("10.0.0.0/14"), // coarser than /16: must NOT split
		dnswire.MustPrefix("192.0.2.0/24"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(calls) != 2 || calls["10.0.0.0/14"] != 1 || calls["192.0.2.0/24"] != 1 {
		t.Fatalf("bulk calls = %v", calls)
	}
	if src.lookups.Load() != 0 {
		t.Fatalf("per-address lookups = %d, want 0", src.lookups.Load())
	}
	if len(snap.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(snap.Records))
	}
}

type bulkSource struct {
	scan    func(shard dnswire.Prefix, emit func(Result))
	lookups atomic.Int32
}

func (s *bulkSource) LookupPTR(ctx context.Context, ip dnswire.IPv4) Result {
	s.lookups.Add(1)
	return Result{IP: ip}
}

func (s *bulkSource) ScanShard(ctx context.Context, shard dnswire.Prefix, at time.Time, emit func(Result)) error {
	s.scan(shard, emit)
	return ctx.Err()
}

func TestDiffRecords(t *testing.T) {
	prev := RecordSet{
		dnswire.MustIPv4("10.0.0.1"): dnswire.MustName("a.example.org"),
		dnswire.MustIPv4("10.0.0.2"): dnswire.MustName("b.example.org"),
	}
	cur := RecordSet{
		dnswire.MustIPv4("10.0.0.2"): dnswire.MustName("b2.example.org"),
		dnswire.MustIPv4("10.0.0.3"): dnswire.MustName("c.example.org"),
	}
	got := DiffRecords(prev, cur)
	want := []Change{
		{Kind: RecordRemoved, IP: dnswire.MustIPv4("10.0.0.1"), Old: dnswire.MustName("a.example.org")},
		{Kind: RecordChanged, IP: dnswire.MustIPv4("10.0.0.2"), Old: dnswire.MustName("b.example.org"), New: dnswire.MustName("b2.example.org")},
		{Kind: RecordAdded, IP: dnswire.MustIPv4("10.0.0.3"), New: dnswire.MustName("c.example.org")},
	}
	if len(got) != len(want) {
		t.Fatalf("diff = %+v", got)
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("diff[%d] = %+v, want %+v", i, got[i], w)
		}
	}
}
