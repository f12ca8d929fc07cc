package scanengine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
)

// mapDiff is the engine's diff as it was computed before the packed form:
// additions and renames looked up record by record in the baseline map,
// removals found by a walk over the whole baseline, and one sort at the
// end. It is the oracle of TestLinearDiffMatchesMapDiff.
func mapDiff(baseline, records RecordSet, shards, degraded []dnswire.Prefix) (changes []Change, excluded int) {
	for ip, name := range records {
		if old, ok := baseline[ip]; !ok {
			changes = append(changes, Change{Kind: RecordAdded, IP: ip, New: name})
		} else if old != name {
			changes = append(changes, Change{Kind: RecordChanged, IP: ip, Old: old, New: name})
		}
	}
	covered := newShardIndex(shards)
	var deg *shardIndex
	if len(degraded) > 0 {
		deg = newShardIndex(degraded)
	}
	for ip, old := range baseline {
		if _, ok := records[ip]; ok || !covered.contains(ip) {
			continue
		}
		if deg != nil && deg.contains(ip) {
			excluded++
			continue
		}
		changes = append(changes, Change{Kind: RecordRemoved, IP: ip, Old: old})
	}
	sort.Slice(changes, func(i, j int) bool {
		if changes[i].IP != changes[j].IP {
			return changes[i].IP.Uint32() < changes[j].IP.Uint32()
		}
		return changes[i].Kind < changes[j].Kind
	})
	return changes, excluded
}

// daySource answers from one day's record set at a time; the addresses
// under failing answer with a retryable fault, and the probe numbered
// cancelAt (when set) cancels the sweep's context.
type daySource struct {
	mu       sync.Mutex
	records  RecordSet
	failing  dnswire.Prefix
	probes   int
	cancelAt int
	cancel   context.CancelFunc
}

func (s *daySource) LookupPTR(_ context.Context, ip dnswire.IPv4) Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.probes++; s.probes == s.cancelAt {
		s.cancel()
	}
	if s.failing.Bits > 0 && s.failing.Contains(ip) {
		return Result{IP: ip, Err: retryableErr{}}
	}
	name, ok := s.records[ip]
	return Result{IP: ip, Name: name, Found: ok}
}

// diffFixture is one seed's address space: six /24s of 10.<seed>.0.0/16,
// targeted so that the sweep covers a /24 whole, one only in part and
// split across two sub-/24 targets, and two through one /23; the fifth and
// sixth /24s are never targeted.
type diffFixture struct {
	rng     func() uint64
	targets []dnswire.Prefix
	space   []dnswire.IPv4 // every address of the six /24s
}

func newDiffFixture(seed uint64) *diffFixture {
	base := fmt.Sprintf("10.%d.", seed%250)
	f := &diffFixture{rng: testSplitmix(seed)}
	for _, p := range []string{"0.0/24", "1.0/25", "1.128/26", "2.0/23"} {
		f.targets = append(f.targets, dnswire.MustPrefix(base+p))
	}
	for k := 0; k < 6; k++ {
		p := dnswire.MustPrefix(fmt.Sprintf("%s%d.0/24", base, k))
		for i := 0; i < 256; i++ {
			f.space = append(f.space, p.Nth(i))
		}
	}
	return f
}

// day draws a record set over the whole space, about one address in four.
func (f *diffFixture) day() RecordSet {
	out := RecordSet{}
	for _, ip := range f.space {
		if f.rng()%4 == 0 {
			out[ip] = dnswire.Name(fmt.Sprintf("h%d-%d.example.org", ip.Uint32(), f.rng()%3))
		}
	}
	return out
}

// next derives the following day: a tenth of the records leave, a tenth
// are renamed, and a few new addresses join.
func (f *diffFixture) next(prev RecordSet) RecordSet {
	out := RecordSet{}
	for _, ip := range f.space {
		name, ok := prev[ip]
		switch r := f.rng() % 20; {
		case ok && r < 2:
			// left
		case ok && r < 4:
			out[ip] = dnswire.Name(fmt.Sprintf("renamed%d-%d.example.org", ip.Uint32(), f.rng()%1000))
		case ok:
			out[ip] = name
		case r == 0:
			out[ip] = dnswire.Name(fmt.Sprintf("joined%d.example.org", ip.Uint32()))
		}
	}
	return out
}

func (f *diffFixture) inTargets(ip dnswire.IPv4) bool {
	for _, t := range f.targets {
		if t.Contains(ip) {
			return true
		}
	}
	return false
}

// sweep runs one sweep of the fixture's targets over records, requiring
// the result func to have seen every probe exactly once, and returns the
// snapshot with its error.
func (f *diffFixture) sweep(t *testing.T, sc *Scanner, src *daySource, probed map[dnswire.IPv4]int, records, baseline RecordSet, cancelAt int) (*Snapshot, error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src.mu.Lock()
	src.records, src.probes, src.cancelAt, src.cancel = records, 0, cancelAt, cancel
	src.mu.Unlock()
	clear(probed)
	snap, err := sc.Scan(ctx, Request{Targets: f.targets, Baseline: baseline})
	for ip, n := range probed {
		if n != 1 || !f.inTargets(ip) {
			t.Fatalf("%s probed %d times (in targets: %v)", ip, n, f.inTargets(ip))
		}
	}
	if err != nil {
		return snap, err // results counted as probes may have been let go
	}
	want := uint64(0)
	for _, p := range f.targets {
		want += uint64(p.NumAddresses())
	}
	if got := uint64(len(probed)); got != snap.Stats.Probes || got+snap.Stats.Skipped != want {
		t.Fatalf("result func saw %d probes of %d addresses; Stats %+v", got, want, snap.Stats)
	}
	return snap, nil
}

// checkDiff compares a complete sweep's Changes and RemovalsExcluded with
// the oracle's over the same baseline and records.
func checkDiff(t *testing.T, what string, snap *Snapshot, baseline RecordSet) {
	t.Helper()
	var shards []dnswire.Prefix
	for _, row := range snap.Shards {
		shards = append(shards, row.Shard)
	}
	var degraded []dnswire.Prefix
	if snap.Health != nil {
		degraded = snap.Health.Degraded
	}
	want, excluded := mapDiff(baseline, snap.Records, shards, degraded)
	if snap.Changes == nil {
		t.Fatalf("%s: a diffed sweep has nil Changes", what)
	}
	if len(snap.Changes) != len(want) {
		t.Fatalf("%s: %d changes, oracle %d", what, len(snap.Changes), len(want))
	}
	for i := range want {
		if snap.Changes[i] != want[i] {
			t.Fatalf("%s: change %d = %+v, oracle %+v", what, i, snap.Changes[i], want[i])
		}
	}
	if snap.Health != nil && snap.Health.RemovalsExcluded != excluded {
		t.Fatalf("%s: RemovalsExcluded = %d, oracle %d", what, snap.Health.RemovalsExcluded, excluded)
	}
	if got := snap.Blocks.Records(); len(got) != len(snap.Records) {
		t.Fatalf("%s: Blocks hold %d records, Records %d", what, len(got), len(snap.Records))
	}
}

// TestLinearDiffMatchesMapDiff checks the engine's linear merge of packed
// snapshots against the map algorithm it replaced, over seeded random
// record sets: successive sweeps, a Request.Baseline override holding
// records outside the targets, targets that cover a /24 only in part and
// split it across sub-/24 shards, a /23 shard spanning two /24s, a
// cancelled sweep (Changes nil, and the next sweep diffs against the last
// complete one), and a shard degraded under WithResilience with the same
// RemovalsExcluded. A result func must see every probe exactly once.
func TestLinearDiffMatchesMapDiff(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			f := newDiffFixture(seed)
			src := &daySource{}
			probed := map[dnswire.IPv4]int{}
			bits := []int{16, 24}[f.rng()%2]
			sc := New(src, WithWorkers(1+int(f.rng()%4)), WithShardBits(bits),
				WithResultFunc(func(res Result) { probed[res.IP]++ }))

			d1 := f.day()
			s1, err := f.sweep(t, sc, src, probed, d1, nil, 0)
			if err != nil || s1.Changes != nil {
				t.Fatalf("first sweep: err %v, changes %v", err, s1.Changes)
			}
			d2 := f.next(d1)
			s2, err := f.sweep(t, sc, src, probed, d2, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkDiff(t, "second sweep", s2, s1.Records)

			// A sweep cancelled part-way infers nothing and is no baseline.
			s3, err := f.sweep(t, sc, src, probed, f.next(d2), nil, 1+int(f.rng()%500))
			if err == nil || !s3.Partial || s3.Changes != nil {
				t.Fatalf("cancelled sweep: err %v, partial %v, changes %d", err, s3.Partial, len(s3.Changes))
			}
			d4 := f.next(f.next(d2))
			s4, err := f.sweep(t, sc, src, probed, d4, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkDiff(t, "sweep after the cancelled one", s4, s2.Records)

			// An override baseline, with records outside the targets.
			override := f.day()
			s5, err := f.sweep(t, sc, src, probed, f.next(d4), override, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkDiff(t, "override sweep", s5, override)
			s6, err := f.sweep(t, sc, src, probed, f.next(s5.Records), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			checkDiff(t, "sweep after the override", s6, s5.Records)

			// A resilient scanner whose fourth /24 fails degrades its shard:
			// absence there proves nothing, and the oracle agrees on how many
			// removals that suppressed.
			src.failing = dnswire.Prefix{Addr: f.space[3*256], Bits: 24}
			rs := New(src, WithWorkers(2), WithShardBits(bits),
				WithResultFunc(func(res Result) { probed[res.IP]++ }),
				WithResilience(ResilienceConfig{
					Retry:   RetryPolicy{MaxAttempts: 2},
					Breaker: BreakerConfig{Threshold: 3, OpenFor: time.Microsecond, MaxOpens: 1},
					Seed:    int64(seed),
				}))
			s7, err := f.sweep(t, rs, src, probed, f.next(d4), d4, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !s7.Degraded || s7.Health == nil {
				t.Fatal("the failing /24 did not degrade its shard")
			}
			checkDiff(t, "degraded sweep", s7, d4)
		})
	}
}
