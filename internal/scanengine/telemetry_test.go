package scanengine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/telemetry"
	"rdnsprivacy/internal/testutil"
)

// retryableErr is a transient infrastructure fault (SERVFAIL-like).
type retryableErr struct{}

func (retryableErr) Error() string        { return "simulated servfail" }
func (retryableErr) RetryableFault() bool { return true }

// faultRangeSource answers from a record map but fails every probe inside
// the failing prefix with a retryable fault.
type faultRangeSource struct {
	records map[dnswire.IPv4]dnswire.Name
	failing dnswire.Prefix
}

func (s *faultRangeSource) LookupPTR(_ context.Context, ip dnswire.IPv4) Result {
	if s.failing.Contains(ip) {
		return Result{IP: ip, Err: retryableErr{}}
	}
	name, ok := s.records[ip]
	return Result{IP: ip, Name: name, Found: ok}
}

func counterVal(reg *telemetry.Registry, name string) uint64 {
	return reg.Counter(name).Value()
}

// TestViewsAreFoldsOfRows builds shard rows by hand and checks every view
// the engine derives from them: Snapshot.add produces Stats,
// HealthReport.Totals and the degraded list, observeShard produces the
// scan_* counters and the shard span. The views have one source, so there
// is no agreement between ledgers left to test — only the two derivations.
func TestViewsAreFoldsOfRows(t *testing.T) {
	open, half, closed := BreakerOpen, BreakerHalfOpen, BreakerClosed
	rows := []ShardRow{
		{
			Shard:  dnswire.MustPrefix("10.70.0.0/24"),
			Probes: 256, Found: 3, Absent: 250, Errors: 3,
			CacheHits: 100, CacheMisses: 156, Queries: 156,
			Attempts: 159, Retries: 3, Done: true,
		},
		{
			Shard:  dnswire.MustPrefix("10.70.1.0/24"),
			Probes: 40, Found: 1, Absent: 9, Errors: 30, Queries: 40, Skipped: 216,
			Attempts: 70, Retries: 30, Throttled: 2, Hedges: 5, HedgeWins: 1,
			Breaker: []BreakerEvent{
				{open, 10}, {half, 11}, {open, 11}, {half, 12}, {closed, 12}, {open, 39},
			},
			Degraded: true, Done: true,
		},
		{Shard: dnswire.MustPrefix("10.70.2.0/24")}, // never started
	}
	wantStats := Stats{Probes: 296, Found: 4, Absent: 259, Errors: 33,
		CacheHits: 100, Retries: 33, Hedges: 5, Skipped: 216}
	wantTotals := ResilienceTotals{Attempts: 229, Retries: 33, Throttled: 2,
		Hedges: 5, HedgeWins: 1, Skipped: 216, BreakerOpens: 3}

	for _, resilient := range []bool{false, true} {
		snap := &Snapshot{Shards: rows}
		if resilient {
			snap.Health = &HealthReport{Shards: rows}
		}
		for i := range rows {
			snap.add(&rows[i])
		}
		if snap.Stats != wantStats {
			t.Errorf("resilient=%v: Stats = %+v, want %+v", resilient, snap.Stats, wantStats)
		}
		if !resilient {
			if snap.Degraded {
				t.Error("a sweep without the resilience layer cannot degrade")
			}
			continue
		}
		if snap.Health.Totals != wantTotals {
			t.Errorf("Totals = %+v, want %+v", snap.Health.Totals, wantTotals)
		}
		if d := snap.Health.Degraded; !snap.Degraded || len(d) != 1 || d[0] != rows[1].Shard {
			t.Errorf("degraded = %v (flag %v), want exactly %s", d, snap.Degraded, rows[1].Shard)
		}
	}

	// observeShard sees each row three times, as a running shard would show
	// it: empty at open, part-filled at a flush, whole at close. Whatever
	// the cut, the registry ends at the row.
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(7, 64)
	sc := New(newCountingSource(nil), WithTelemetry(reg), WithTracer(tr))
	for i := range rows {
		row := &rows[i]
		var v shardView
		sc.observeShard(&v, &ShardRow{Shard: row.Shard}, shardOpen)
		if got := reg.Gauge(MetricShardsInflight).Value(); got != 1 {
			t.Fatalf("%s = %d with one shard open, want 1", MetricShardsInflight, got)
		}
		part := *row
		part.Probes, part.Absent, part.Queries, part.Attempts = row.Probes/2, row.Absent/2, row.Queries/2, row.Attempts/2
		part.Skipped, part.Degraded, part.Breaker = 0, false, row.Breaker[:len(row.Breaker)/2]
		sc.observeShard(&v, &part, shardFlush)
		sc.observeShard(&v, row, shardClose)
	}
	for metric, want := range map[string]uint64{
		MetricProbes:           wantStats.Probes,
		MetricQueries:          196,
		MetricFound:            wantStats.Found,
		MetricAbsent:           wantStats.Absent,
		MetricErrors:           wantStats.Errors,
		MetricCacheHits:        wantStats.CacheHits,
		MetricCacheMisses:      156,
		MetricAttempts:         uint64(wantTotals.Attempts),
		MetricRetries:          uint64(wantTotals.Retries),
		MetricThrottled:        uint64(wantTotals.Throttled),
		MetricHedges:           uint64(wantTotals.Hedges),
		MetricHedgeWins:        uint64(wantTotals.HedgeWins),
		MetricSkipped:          uint64(wantTotals.Skipped),
		MetricBreakerOpens:     uint64(wantTotals.BreakerOpens),
		MetricBreakerHalfOpens: 2,
		MetricBreakerCloses:    1,
		MetricShardsDegraded:   1,
	} {
		if got := counterVal(reg, metric); got != want {
			t.Errorf("%s = %d, want %d", metric, got, want)
		}
	}
	if got := reg.Gauge(MetricShardsInflight).Value(); got != 0 {
		t.Errorf("%s = %d after every shard closed, want 0", MetricShardsInflight, got)
	}

	spans := tr.Snapshot()
	if len(spans) != len(rows) {
		t.Fatalf("tracer has %d spans, want one per row", len(spans))
	}
	for i, sp := range spans {
		row := rows[i]
		want := []telemetry.SpanEvent{
			{Kind: TraceFound, Code: uint64(row.Found)},
			{Kind: TraceAbsent, Code: uint64(row.Absent - row.CacheHits)},
			{Kind: TraceErrors, Code: uint64(row.Errors)},
			{Kind: TraceCached, Code: uint64(row.CacheHits)},
		}
		for _, ev := range row.Breaker {
			want = append(want, telemetry.SpanEvent{Kind: TraceBreaker, Code: uint64(ev.State)})
		}
		if sp.Attr != row.Shard.String() || len(sp.Events) != len(want) {
			t.Fatalf("span %d: attr %q with %d events, want %q with %d", i, sp.Attr, len(sp.Events), row.Shard, len(want))
		}
		for j, ev := range sp.Events {
			if ev.Kind != want[j].Kind || ev.Code != want[j].Code {
				t.Errorf("span %d event %d = %s/%d, want %s/%d", i, j, ev.Kind, ev.Code, want[j].Kind, want[j].Code)
			}
		}
	}
}

// TestDegradedSweepLedgerGolden drives one shard of two into degradation
// and pins everything the sweep reports about itself — the health
// fingerprint, the registry digest, the rows, the removal inference — to
// the values the engine produced when it kept these as parallel ledgers
// (recorded at the commit before the row replaced them). A difference
// here is a derivation that changed, which is a change of behaviour.
func TestDegradedSweepLedgerGolden(t *testing.T) {
	failing := dnswire.MustPrefix("10.80.1.0/24")
	src := &faultRangeSource{
		records: map[dnswire.IPv4]dnswire.Name{
			dnswire.MustIPv4("10.80.0.3"): dnswire.MustName("ok.example.org"),
		},
		failing: failing,
	}
	reg := telemetry.NewRegistry()
	sc := New(src,
		WithWorkers(2),
		WithTelemetry(reg),
		WithResilience(ResilienceConfig{
			Retry:   RetryPolicy{MaxAttempts: 2},
			Breaker: BreakerConfig{Threshold: 3, OpenFor: time.Millisecond, MaxOpens: 1},
			Seed:    11,
		}),
	)
	// The baseline holds a stale record in each /24; the healthy shard can
	// prove its removal, the degraded shard cannot.
	baseline := RecordSet{
		dnswire.MustIPv4("10.80.0.5"): dnswire.MustName("gone.example.org"),
		dnswire.MustIPv4("10.80.1.5"): dnswire.MustName("ghost.example.org"),
	}
	snap, err := sc.Scan(context.Background(), Request{
		Targets:  []dnswire.Prefix{dnswire.MustPrefix("10.80.0.0/24"), failing},
		Baseline: baseline,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Degraded || snap.Health == nil {
		t.Fatalf("sweep did not degrade: %+v", snap.Health)
	}
	if got, want := snap.Health.Fingerprint(), uint64(0x039c9e8238b889a5); got != want {
		t.Errorf("health fingerprint = %#016x, want %#016x", got, want)
	}
	if got, want := reg.DeterministicDigest(MetricMergeStalls), uint64(0xb177c45b393e85de); got != want {
		t.Errorf("registry digest = %#016x, want %#016x; counters %v", got, want, reg.Snapshot().Counters)
	}
	wantStats := Stats{Probes: 260, Found: 1, Absent: 255, Errors: 4, Retries: 3, Skipped: 252}
	if snap.Stats != wantStats {
		t.Errorf("Stats = %+v, want %+v", snap.Stats, wantStats)
	}
	wantTotals := ResilienceTotals{Attempts: 263, Retries: 3, Skipped: 252, BreakerOpens: 2}
	if snap.Health.Totals != wantTotals {
		t.Errorf("Totals = %+v, want %+v", snap.Health.Totals, wantTotals)
	}
	// Snapshot.Shards and Health.Shards are one ledger, not two copies.
	if &snap.Shards[0] != &snap.Health.Shards[0] {
		t.Error("Health.Shards is not Snapshot.Shards")
	}
	if sick := snap.Shards[1]; sick.Probes != 4 || sick.Errors != 4 || sick.Skipped != 252 ||
		sick.Attempts != 7 || sick.Retries != 3 || sick.Queries != 4 || !sick.Degraded || !sick.Done ||
		fmt.Sprint(sick.Breaker) != "[{open 2} {half-open 3} {open 3}]" {
		t.Errorf("degraded shard's row = %+v", sick)
	}

	// Removal inference: proven in the healthy shard, excluded (and
	// counted) in the degraded one.
	var removed []dnswire.IPv4
	for _, ch := range snap.Changes {
		if ch.Kind == RecordRemoved {
			removed = append(removed, ch.IP)
		}
	}
	if len(removed) != 1 || removed[0] != dnswire.MustIPv4("10.80.0.5") {
		t.Errorf("removals = %v, want exactly 10.80.0.5", removed)
	}
	if snap.Health.RemovalsExcluded != 1 {
		t.Errorf("RemovalsExcluded = %d, want 1", snap.Health.RemovalsExcluded)
	}
	if got := counterVal(reg, MetricRemovalsExcluded); got != 1 {
		t.Errorf("%s = %d, want 1", MetricRemovalsExcluded, got)
	}
}

// TestTracedSweepSummaryIsExactAndBounded sweeps one /18 — a single shard
// of 16384 probes, twice the per-span event cap — and checks the shard
// span accounts for every probe in a handful of events, dropping none.
func TestTracedSweepSummaryIsExactAndBounded(t *testing.T) {
	records := map[dnswire.IPv4]dnswire.Name{
		dnswire.MustIPv4("10.64.0.9"):  dnswire.MustName("a.example.org"),
		dnswire.MustIPv4("10.64.63.9"): dnswire.MustName("b.example.org"),
	}
	failing := dnswire.MustPrefix("10.64.32.0/28")
	tr := telemetry.NewTracer(5, 8)
	sc := New(&faultRangeSource{records: records, failing: failing}, WithWorkers(1), WithTracer(tr))
	snap, err := sc.Scan(context.Background(), Request{Targets: []dnswire.Prefix{dnswire.MustPrefix("10.64.0.0/18")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Shards) != 1 || snap.Stats.Probes != 16384 {
		t.Fatalf("sweep ran %d shards, %d probes, want one shard of 16384", len(snap.Shards), snap.Stats.Probes)
	}
	spans := tr.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("tracer has %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if len(sp.Events) > 16 || sp.Dropped != 0 {
		t.Fatalf("shard span holds %d events and dropped %d, want at most 16 and none", len(sp.Events), sp.Dropped)
	}
	got := map[string]uint64{}
	for _, ev := range sp.Events {
		got[ev.Kind] += ev.Code
	}
	st := snap.Stats
	if got[TraceFound] != st.Found || got[TraceAbsent] != st.Absent || got[TraceErrors] != st.Errors ||
		got[TraceFound]+got[TraceAbsent]+got[TraceErrors]+got[TraceCached] != st.Probes {
		t.Fatalf("span summary %v != Stats %+v", got, st)
	}
	if st.Found != 2 || st.Errors != 16 {
		t.Fatalf("scenario lost its records or faults: %+v", st)
	}
}

// TestMetricsStayLiveInsideAShard blocks the source at probe 300 of a /16
// shard: the registry must already show the first 256 probes, because rows
// flush at every /24 boundary and not only when a shard closes.
func TestMetricsStayLiveInsideAShard(t *testing.T) {
	reached, release := make(chan struct{}), make(chan struct{})
	var probes atomic.Int32
	src := SourceFunc(func(ctx context.Context, ip dnswire.IPv4) Result {
		if probes.Add(1) == 300 {
			close(reached)
			<-release
		}
		return Result{IP: ip}
	})
	reg := telemetry.NewRegistry()
	sc := New(src, WithWorkers(1), WithTelemetry(reg))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sc.Scan(ctx, Request{Targets: []dnswire.Prefix{dnswire.MustPrefix("10.65.0.0/16")}})
		done <- err
	}()
	<-reached
	if got := counterVal(reg, MetricProbes); got < 256 || got >= 300 {
		t.Errorf("%s = %d while blocked at probe 300, want the 256 flushed at the /24 boundary", MetricProbes, got)
	}
	if got := reg.Gauge(MetricShardsInflight).Value(); got != 1 {
		t.Errorf("%s = %d mid-shard, want 1", MetricShardsInflight, got)
	}
	cancel()
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := counterVal(reg, MetricProbes); got != 300 {
		t.Errorf("%s = %d after the cancelled shard closed, want all 300 probes", MetricProbes, got)
	}
}

// TestCancelWhileMergeStageIsFull covers the lookup stage giving up on a
// send: the result func holds the merge stage until the sweep is cancelled
// and every worker has closed its shard, so the workers fill the bounded
// channel, block on it, and can only leave through ctx.Done — never by
// the merge stage happening to make room first. Workers hand over a /24 at
// a time, so every count here is in batches of 256 addresses.
func TestCancelWhileMergeStageIsFull(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var probes atomic.Int32
	src := SourceFunc(func(ctx context.Context, ip dnswire.IPv4) Result {
		probes.Add(1)
		return Result{IP: ip, Name: "h.example.org.", Found: true}
	})
	reg := telemetry.NewRegistry()
	inflight := reg.Gauge(MetricShardsInflight)
	held := 0
	sc := New(src, WithWorkers(2), WithShardBits(20), WithTelemetry(reg),
		WithResultFunc(func(Result) {
			if held++; held > 1 {
				return
			}
			// One batch taken, the channel full, both workers holding one
			// more: nothing moves until the context ends.
			for probes.Load() < (bufferSize+3)*flushEvery {
				time.Sleep(time.Millisecond)
			}
			cancel()
			for inflight.Value() != 0 {
				time.Sleep(time.Millisecond)
			}
		}))
	snap, err := sc.Scan(ctx, Request{Targets: []dnswire.Prefix{dnswire.MustPrefix("10.66.0.0/19")}})
	if !errors.Is(err, context.Canceled) || !snap.Partial {
		t.Fatalf("err = %v, partial = %v, want a cancelled partial sweep", err, snap.Partial)
	}
	// Everything sent before the cancel was merged; the two batches the
	// workers were holding were counted in their rows and then let go.
	if len(snap.Records) != (bufferSize+1)*flushEvery || snap.Stats.Probes != (bufferSize+3)*flushEvery {
		t.Fatalf("merged %d records of %d probes, want %d of %d",
			len(snap.Records), snap.Stats.Probes, (bufferSize+1)*flushEvery, (bufferSize+3)*flushEvery)
	}
	if counterVal(reg, MetricMergeStalls) == 0 {
		t.Errorf("%s = 0 after workers blocked on a full merge channel", MetricMergeStalls)
	}
}

// TestMergeChannelCarriesResultsOnly pins the size of what crosses the
// lookup/merge channel, once per /24: a block's header and a result slice.
// Rows stay where the merge stage reads them, so no closing tally, error
// or health pointer rides along with every batch.
func TestMergeChannelCarriesResultsOnly(t *testing.T) {
	if got := unsafe.Sizeof(batch{}); got > 64 {
		t.Fatalf("a merge-channel message is %d bytes, want at most 64", got)
	}
}

// TestTelemetryDisabledIsInert checks a scanner without WithTelemetry
// neither panics nor registers anything.
func TestTelemetryDisabledIsInert(t *testing.T) {
	sc := New(newCountingSource(nil), WithWorkers(2))
	if _, err := sc.Scan(context.Background(), Request{
		Targets: []dnswire.Prefix{dnswire.MustPrefix("10.90.0.0/28")},
	}); err != nil {
		t.Fatal(err)
	}
	if sc.met != nil || sc.tracer != nil {
		t.Fatal("telemetry must stay nil when not configured")
	}
}
