package scanengine

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/simclock"
	"rdnsprivacy/internal/telemetry"
)

// windowedSource is a countingSource that also takes windows, and keeps
// each one it was handed.
type windowedSource struct {
	*countingSource
	mu      sync.Mutex
	windows [][]dnswire.IPv4
}

func (s *windowedSource) LookupPTRs(ctx context.Context, ips []dnswire.IPv4, out []Result) {
	s.mu.Lock()
	s.windows = append(s.windows, append([]dnswire.IPv4(nil), ips...))
	s.mu.Unlock()
	for i, ip := range ips {
		out[i] = s.LookupPTR(ctx, ip)
	}
}

func windowTestRecords() map[dnswire.IPv4]dnswire.Name {
	records := make(map[dnswire.IPv4]dnswire.Name)
	for _, p := range []string{"10.1.0.0/24", "10.1.1.0/25"} {
		prefix := dnswire.MustPrefix(p)
		for i := 0; i < prefix.NumAddresses(); i += 5 {
			records[prefix.Nth(i)] = dnswire.MustName("host.example.org")
		}
	}
	return records
}

// A WindowSource is handed each shard as runs of consecutive addresses, at
// most Window long, every address exactly once — and the sweep that comes
// out is the one a plain Source produces, negative cache included: on the
// second sweep only the addresses the cache does not answer are in the
// windows, still in order.
func TestWindowSourceSeesConsecutiveCacheMissingRuns(t *testing.T) {
	targets := []dnswire.Prefix{dnswire.MustPrefix("10.1.0.0/24"), dnswire.MustPrefix("10.1.1.0/25"), dnswire.MustPrefix("10.1.2.0/29")}
	records := windowTestRecords()
	clock := simclock.NewSimulated(time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC))
	win := &windowedSource{countingSource: newCountingSource(records)}
	plain := newCountingSource(records)
	opts := []Option{WithWorkers(3), WithNegativeTTL(time.Hour), WithClock(clock)}
	winSc, plainSc := New(win, opts...), New(plain, opts...)

	for sweep := 0; sweep < 2; sweep++ {
		win.windows = nil
		got, err := winSc.Scan(context.Background(), Request{Targets: targets})
		if err != nil {
			t.Fatal(err)
		}
		want, err := plainSc.Scan(context.Background(), Request{Targets: targets})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Records, want.Records) || got.Stats != want.Stats ||
			!reflect.DeepEqual(got.Changes, want.Changes) || !reflect.DeepEqual(got.Shards, want.Shards) {
			t.Fatalf("sweep %d: window path\n %+v %+v\nper-probe path\n %+v %+v", sweep, got.Stats, got.Shards, want.Stats, want.Shards)
		}
		if sweep == 1 && (got.Stats.CacheHits == 0 || got.Stats.CacheHits+uint64(len(records)) != got.Stats.Probes) {
			t.Fatalf("second sweep: %+v: every absence of the first should be a cache hit", got.Stats)
		}
		seen := make(map[dnswire.IPv4]bool)
		for _, w := range win.windows {
			if len(w) == 0 || len(w) > Window {
				t.Fatalf("sweep %d: a window of %d addresses", sweep, len(w))
			}
			for i, ip := range w {
				if seen[ip] {
					t.Errorf("sweep %d: %s is in two windows", sweep, ip)
				}
				seen[ip] = true
				if i > 0 && (ip.Uint32() <= w[i-1].Uint32() || ip.Slash24() != w[0].Slash24()) {
					t.Errorf("sweep %d: window %v is not one shard's addresses in order", sweep, w)
				}
				if sweep == 0 && i > 0 && ip.Uint32() != w[i-1].Uint32()+1 {
					t.Errorf("sweep %d: window %v is not consecutive", sweep, w)
				}
				if _, has := records[ip]; sweep == 1 && !has {
					t.Errorf("sweep %d: %s went to the source though the cache holds its absence", sweep, ip)
				}
			}
		}
		if uint64(len(seen)) != got.Stats.Probes-got.Stats.CacheHits {
			t.Errorf("sweep %d: windows covered %d addresses, stats say %d reached the source", sweep, len(seen), got.Stats.Probes-got.Stats.CacheHits)
		}
	}
	if win.totalProbes() != plain.totalProbes() {
		t.Errorf("window path sent %d probes, per-probe path %d", win.totalProbes(), plain.totalProbes())
	}
}

// With resilience or a rate limit on, the window is one address: the
// breaker's state after a probe decides whether the next is sent, and a
// rate is a spacing. The WindowSource is then driven through LookupPTR.
func TestWindowCollapsesUnderResilienceAndRate(t *testing.T) {
	target := []dnswire.Prefix{dnswire.MustPrefix("10.1.0.0/26")}
	for name, opt := range map[string]Option{
		"resilience": WithResilience(ResilienceConfig{Retry: RetryPolicy{MaxAttempts: 2}}),
		"rate":       WithRate(100000),
	} {
		src := &windowedSource{countingSource: newCountingSource(windowTestRecords())}
		snap, err := New(src, opt).Scan(context.Background(), Request{Targets: target})
		if err != nil {
			t.Fatal(err)
		}
		if len(src.windows) != 0 || src.totalProbes() != 64 || snap.Stats.Probes != 64 {
			t.Errorf("%s: %d windows, %d probes, stats %+v: want the per-probe path", name, len(src.windows), src.totalProbes(), snap.Stats)
		}
	}
}

// scan_probe_seconds stays one observation per probe on the window path.
func TestWindowPathTimesEveryProbe(t *testing.T) {
	reg := telemetry.NewRegistry()
	src := &windowedSource{countingSource: newCountingSource(windowTestRecords())}
	snap, err := New(src, WithTelemetry(reg)).Scan(context.Background(), Request{Targets: []dnswire.Prefix{dnswire.MustPrefix("10.1.0.0/25")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(src.windows) != 128/Window {
		t.Fatalf("%d windows, want %d", len(src.windows), 128/Window)
	}
	if got := reg.Histogram(MetricProbeSeconds, telemetry.DefaultLatencyBuckets()).Count(); got != snap.Stats.Probes {
		t.Errorf("scan_probe_seconds holds %d observations for %d probes", got, snap.Stats.Probes)
	}
}
