package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rdnsprivacy/internal/telemetry"
)

func day(i int) time.Time {
	return time.Date(2021, 1, 1, 13, 0, 0, 0, time.UTC).AddDate(0, 0, i)
}

func TestFrameRates(t *testing.T) {
	f := Frame{Probes: 200, Errors: 2, Retries: 10, Skipped: 50,
		Added: 1, Removed: 2, Changed: 3}
	if got := f.ErrorRate(); got != 0.01 {
		t.Errorf("ErrorRate = %v, want 0.01", got)
	}
	if got := f.Coverage(); got != 0.8 {
		t.Errorf("Coverage = %v, want 0.8", got)
	}
	if got := f.RetryRate(); got != 0.05 {
		t.Errorf("RetryRate = %v, want 0.05", got)
	}
	if got := f.Churn(); got != 6 {
		t.Errorf("Churn = %d, want 6", got)
	}
	var zero Frame
	if zero.ErrorRate() != 0 || zero.Coverage() != 1 || zero.RetryRate() != 0 {
		t.Errorf("zero frame rates = %v/%v/%v, want 0/1/0",
			zero.ErrorRate(), zero.Coverage(), zero.RetryRate())
	}
}

func TestStoreRing(t *testing.T) {
	s := NewStore(3)
	for i := 0; i < 5; i++ {
		s.Add(Frame{Index: i})
	}
	if s.Len() != 3 || s.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 3/2", s.Len(), s.Dropped())
	}
	frames := s.Frames()
	if frames[0].Index != 2 || frames[2].Index != 4 {
		t.Fatalf("retained indices %d..%d, want 2..4", frames[0].Index, frames[2].Index)
	}
}

func TestFrameJSONLRoundTrip(t *testing.T) {
	in := []Frame{
		{Index: 0, Date: day(0), MetricsDigest: "00deadbeef000000",
			Deltas:  map[string]uint64{"scan_probes_total": 512, "scan_errors_total": 3},
			Records: 100, Probes: 512, Found: 100, Absent: 409, Errors: 3,
			Added: 5, Removed: 1, Changed: 2},
		{Index: 1, Date: day(1), Partial: true, Degraded: true,
			DegradedPrefixes: []string{"192.0.2.0/24"}, BreakerOpens: 2,
			HealthFingerprint: "0123456789abcdef"},
	}
	var buf bytes.Buffer
	if err := WriteFrames(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrames(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := WriteFrames(&again, out); err != nil {
		t.Fatal(err)
	}
	d1, err1 := FramesDigest(in)
	d2, err2 := FramesDigest(out)
	if err1 != nil || err2 != nil || d1 != d2 {
		t.Fatalf("round-trip digest %016x -> %016x (%v, %v)", d1, d2, err1, err2)
	}
}

func TestRecorderDeltas(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := reg.Counter("scan_probes_total")
	noisy := reg.Counter("scan_hedges_total")
	r := NewRecorder(reg)

	c.Add(10)
	noisy.Add(99)
	f0 := r.CaptureFrame(0, day(0), nil)
	if f0.Deltas["scan_probes_total"] != 10 {
		t.Fatalf("day 0 deltas = %v, want probes 10", f0.Deltas)
	}
	if _, ok := f0.Deltas["scan_hedges_total"]; ok {
		t.Fatal("excluded counter leaked into deltas")
	}
	if f0.MetricsDigest == "" {
		t.Fatal("missing metrics digest")
	}

	c.Add(7)
	f1 := r.CaptureFrame(1, day(1), nil)
	if f1.Deltas["scan_probes_total"] != 7 {
		t.Fatalf("day 1 deltas = %v, want probes 7", f1.Deltas)
	}
	// No increments since: the third frame carries no deltas at all.
	f2 := r.CaptureFrame(2, day(2), nil)
	if f2.Deltas != nil {
		t.Fatalf("idle day deltas = %v, want none", f2.Deltas)
	}
	if got := len(r.Frames()); got != 3 {
		t.Fatalf("stored frames = %d, want 3", got)
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	f := r.CaptureFrame(0, day(0), nil)
	if f.Index != 0 || !f.Date.IsZero() || f.Deltas != nil || f.MetricsDigest != "" {
		t.Fatalf("nil recorder frame = %+v", f)
	}
	if r.Frames() != nil || r.Store() != nil {
		t.Fatal("nil recorder leaked state")
	}
}

func TestSLOEvaluate(t *testing.T) {
	rules := DefaultRules()
	frames := []Frame{
		{Index: 0, Probes: 1000, Errors: 1},                    // healthy
		{Index: 1, Probes: 1000, Errors: 50},                   // error-rate breach
		{Index: 2, Probes: 900, Skipped: 100, BreakerOpens: 3}, // coverage + breaker
		{Index: 3, Probes: 1000, Retries: 100},                 // retry breach
		{Index: 4, Probes: 1000},                               // healthy
	}
	rep := rules.Evaluate(frames)
	if rep.ViolatingFrames != 3 {
		t.Fatalf("violating = %d, want 3:\n%s", rep.ViolatingFrames, rep.Summary())
	}
	if rep.BudgetOK {
		t.Fatalf("3/5 frames violating must exceed a 5%% budget:\n%s", rep.Summary())
	}
	if !rep.Verdicts[0].OK || rep.Verdicts[1].OK {
		t.Fatalf("verdicts = %+v", rep.Verdicts)
	}
	wantRules := map[int][]string{
		1: {"error_rate"},
		2: {"coverage", "breaker_opens"},
		3: {"retry_rate"},
	}
	for idx, want := range wantRules {
		var got []string
		for _, v := range rep.Verdicts[idx].Violations {
			got = append(got, v.Rule)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("frame %d violations = %v, want %v", idx, got, want)
		}
	}
	if !strings.Contains(rep.Summary(), "EXCEEDS") {
		t.Errorf("summary lacks budget verdict:\n%s", rep.Summary())
	}
}

func TestSLOZeroRulesPass(t *testing.T) {
	rep := Rules{MaxErrorRate: -1, MaxBreakerOpens: -1, MaxRetryRate: -1}.
		Evaluate([]Frame{{Probes: 10, Errors: 10, BreakerOpens: 5, Retries: 30}})
	if rep.ViolatingFrames != 0 || !rep.BudgetOK {
		t.Fatalf("disabled rules still violated: %+v", rep)
	}
}

func TestDetectorFlagsSpike(t *testing.T) {
	var frames []Frame
	for i := 0; i < 20; i++ {
		d := uint64(100)
		if i == 13 {
			d = 5000 // the anomaly
		}
		frames = append(frames, Frame{Index: i,
			Deltas: map[string]uint64{"scan_errors_total": d}})
	}
	det := Detector{Seed: 42}
	got := det.Detect(frames)
	if len(got) == 0 {
		t.Fatal("spike not flagged")
	}
	for _, a := range got {
		if a.Index != 13 {
			t.Fatalf("flagged frame %d, want only 13: %+v", a.Index, got)
		}
		if a.Metric != "scan_errors_total" {
			t.Fatalf("flagged metric %q", a.Metric)
		}
	}
	// A flat series must be quiet.
	for i := range frames {
		frames[i].Deltas = map[string]uint64{"scan_errors_total": 100}
	}
	if got := det.Detect(frames); len(got) != 0 {
		t.Fatalf("flat series flagged: %+v", got)
	}
}

// TestDetectorSplitsCampaignsAtIndexReset: a dump concatenating two
// campaigns of very different scale (the experiments study records the
// dynamicity series and the longitudinal campaigns through one recorder)
// must judge each against its own baseline — and still catch a spike
// inside one of them.
func TestDetectorSplitsCampaignsAtIndexReset(t *testing.T) {
	var frames []Frame
	for i := 0; i < 15; i++ { // small campaign: ~100/day
		frames = append(frames, Frame{Index: i,
			Deltas: map[string]uint64{"scan_probes_total": 100 + uint64(i%3)}})
	}
	for i := 0; i < 15; i++ { // big campaign: ~14000/day, index restarts
		d := uint64(14000 + 50*(i%4))
		if i == 9 {
			d = 90000 // genuine spike within the big campaign
		}
		frames = append(frames, Frame{Index: i,
			Deltas: map[string]uint64{"scan_probes_total": d}})
	}
	got := Detector{Seed: 42}.Detect(frames)
	if len(got) == 0 {
		t.Fatal("in-campaign spike not flagged")
	}
	for _, a := range got {
		if a.Index != 9 || a.Delta != 90000 {
			t.Fatalf("flagged %+v; only the index-9 spike is anomalous "+
				"(cross-campaign scale shifts must not be)", a)
		}
	}
}

// TestDetectorToleratesStableJitter: sub-percent jitter on a large,
// near-constant counter must not be flagged even though the series MAD
// is tiny (the scale is floored at 1% of the median).
func TestDetectorToleratesStableJitter(t *testing.T) {
	var frames []Frame
	for i := 0; i < 20; i++ {
		frames = append(frames, Frame{Index: i,
			Deltas: map[string]uint64{"scan_probes_total": 14100 + uint64(i%2)*80}})
	}
	if got := (Detector{Seed: 42}).Detect(frames); len(got) != 0 {
		t.Fatalf("stable series with sub-percent jitter flagged: %+v", got)
	}
}

func TestDetectorDeterministicThresholds(t *testing.T) {
	a := Detector{Seed: 7}
	b := Detector{Seed: 7}
	c := Detector{Seed: 8}
	if a.zThreshold() != b.zThreshold() || a.ewmaDeviation() != b.ewmaDeviation() {
		t.Fatal("same seed gave different thresholds")
	}
	if a.zThreshold() < 3.5 || a.zThreshold() >= 4.0 {
		t.Fatalf("derived z threshold %v outside [3.5, 4)", a.zThreshold())
	}
	_ = c // distinct seeds may collide; only the range and determinism are contractual
	// Explicit parameters override the seeded ones.
	set := Detector{Seed: 7, ZThreshold: 5, EWMADeviation: 3, EWMAAlpha: 0.5, MinFrames: 4}
	if set.zThreshold() != 5 || set.ewmaDeviation() != 3 || set.alpha() != 0.5 || set.minFrames() != 4 {
		t.Fatalf("explicit detector parameters not honoured: %+v", set)
	}
}

// spanRecords dumps and reparses a tracer's spans — the same JSONL path
// the experiments -trace pipeline uses.
func spanRecords(t *testing.T, tr *telemetry.Tracer) []telemetry.SpanRecord {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestStitchGroupsChains(t *testing.T) {
	tr := telemetry.NewTracer(1, 64)
	corr := telemetry.CorrID(1, "10.2.0.192.in-addr.arpa.", 1)

	sp := tr.StartSpanCorr("attempt", "10.2.0.192.in-addr.arpa.", corr)
	sp.Event("tx", 1)
	hop := tr.StartSpanCorr("hop", "a>b", corr)
	hop.Event("hop", 1)
	hop.Event("hop", 2)
	hop.End()
	srv := tr.StartSpanCorr("server", "10.2.0.192.in-addr.arpa.", corr)
	srv.Event("server", 0)
	srv.End()
	back := tr.StartSpanCorr("hop", "b>a", corr)
	back.Event("hop", 1)
	back.Event("hop", 2)
	back.End()
	sp.Event("client", 0)
	sp.End()
	// Uncorrelated noise must be ignored.
	noise := tr.StartSpan("shard", "s0")
	noise.End()

	chains := Stitch(spanRecords(t, tr))
	if len(chains) != 1 {
		t.Fatalf("chains = %d, want 1", len(chains))
	}
	c := chains[0]
	if !c.Complete() || c.Corr != corr || len(c.Hops) != 2 {
		t.Fatalf("chain = %+v, want complete with 2 hops", c)
	}
	if c.Name != "10.2.0.192.in-addr.arpa." {
		t.Fatalf("chain name = %q", c.Name)
	}
	line := c.Render()
	for _, want := range []string{"attempt#1", "hop a>b deliver", "hop b>a deliver",
		"server NOERROR", "client NOERROR"} {
		if !strings.Contains(line, want) {
			t.Fatalf("render %q missing %q", line, want)
		}
	}
}

func TestStitchIncompleteChain(t *testing.T) {
	tr := telemetry.NewTracer(2, 64)
	corr := telemetry.CorrID(2, "x.in-addr.arpa.", 1)
	hop := tr.StartSpanCorr("hop", "a>b", corr)
	hop.Event("hop", 1)
	hop.Event("hop", 3) // dropped in flight
	hop.End()
	chains := Stitch(spanRecords(t, tr))
	if len(chains) != 1 || chains[0].Complete() {
		t.Fatalf("chains = %+v, want one incomplete", chains)
	}
	if !strings.Contains(chains[0].Render(), "hop a>b drop") {
		t.Fatalf("render = %q", chains[0].Render())
	}
}

func TestRecorderStoreStats(t *testing.T) {
	r := NewRecorder(nil)
	// No source attached: frames omit the store block.
	if f := r.CaptureFrame(0, day(0), nil); f.Store != nil {
		t.Fatalf("store stats without a source: %+v", f.Store)
	}
	calls := 0
	r.SetStoreStats(func() StoreStats {
		calls++
		return StoreStats{Snapshots: calls, Blocks: 2, BaseFrames: 3, DeltaFrames: 4, Bytes: 512}
	})
	f1 := r.CaptureFrame(1, day(1), nil)
	f2 := r.CaptureFrame(2, day(2), nil)
	if f1.Store == nil || f2.Store == nil {
		t.Fatal("frames missing store stats")
	}
	// Each capture re-snapshots the source; the copies are independent.
	if f1.Store.Snapshots != 1 || f2.Store.Snapshots != 2 || f1.Store == f2.Store {
		t.Fatalf("store snapshots: %+v then %+v", f1.Store, f2.Store)
	}
	if f1.Store.Bytes != 512 || f1.Store.Blocks != 2 {
		t.Fatalf("store fields: %+v", f1.Store)
	}
	// Detaching stops the captures; a nil recorder accepts the call.
	r.SetStoreStats(nil)
	if f := r.CaptureFrame(3, day(3), nil); f.Store != nil {
		t.Fatalf("store stats after detach: %+v", f.Store)
	}
	var nilRec *Recorder
	nilRec.SetStoreStats(func() StoreStats { return StoreStats{} })
}

func TestWithExcludedMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	quiet := reg.Counter("scan_probes_total")
	r := NewRecorder(reg, WithExcludedMetrics("scan_probes_total"))
	quiet.Add(5)
	if f := r.CaptureFrame(0, day(0), nil); f.Deltas != nil {
		t.Fatalf("excluded counter leaked: %v", f.Deltas)
	}
}

func TestRecorderVantageStats(t *testing.T) {
	r := NewRecorder(nil)
	// No source attached: frames omit the vantage block and report the
	// vacuous corroboration score.
	f0 := r.CaptureFrame(0, day(0), nil)
	if f0.Vantage != nil || f0.Corroboration() != 1 {
		t.Fatalf("vantage stats without a source: %+v", f0)
	}
	r.SetVantageStats(func() *VantageStats {
		return &VantageStats{Vantages: 3, Changes: 4, FullyCorroborated: 2, MeanCorroboration: 0.5}
	})
	f1 := r.CaptureFrame(1, day(1), nil)
	if f1.Vantage == nil || f1.Vantage.Vantages != 3 {
		t.Fatalf("frame missing vantage stats: %+v", f1)
	}
	if f1.Corroboration() != 0.5 {
		t.Fatalf("corroboration = %v, want 0.5", f1.Corroboration())
	}
	// A pre-built frame that already carries vantage stats keeps them.
	own := &VantageStats{Vantages: 2, MeanCorroboration: 0.25}
	f2 := r.Capture(Frame{Index: 2, Date: day(2), Vantage: own})
	if f2.Vantage != own || f2.Corroboration() != 0.25 {
		t.Fatalf("capture overwrote explicit vantage stats: %+v", f2.Vantage)
	}
	// Detaching stops the captures; a nil recorder accepts the call.
	r.SetVantageStats(nil)
	if f := r.CaptureFrame(3, day(3), nil); f.Vantage != nil {
		t.Fatalf("vantage stats after detach: %+v", f.Vantage)
	}
	var nilRec *Recorder
	nilRec.SetVantageStats(func() *VantageStats { return nil })
}

func TestSLOMinCorroboration(t *testing.T) {
	rules := Rules{MaxErrorRate: -1, MaxBreakerOpens: -1, MaxRetryRate: -1, MinCorroboration: 0.9}
	frames := []Frame{
		{Index: 0, Vantage: &VantageStats{Vantages: 3, MeanCorroboration: 0.95}}, // healthy
		{Index: 1, Vantage: &VantageStats{Vantages: 3, MeanCorroboration: 0.5}},  // breach
		{Index: 2}, // no vantage stats: vacuously corroborated
	}
	rep := rules.Evaluate(frames)
	if rep.ViolatingFrames != 1 || rep.Verdicts[0].OK == false || rep.Verdicts[2].OK == false {
		t.Fatalf("verdicts = %+v", rep.Verdicts)
	}
	if len(rep.Verdicts[1].Violations) != 1 || rep.Verdicts[1].Violations[0].Rule != "corroboration" {
		t.Fatalf("frame 1 violations = %+v", rep.Verdicts[1].Violations)
	}
	// Zero disables the rule entirely.
	rules.MinCorroboration = 0
	if rep := rules.Evaluate(frames); rep.ViolatingFrames != 0 {
		t.Fatalf("disabled rule still violated: %+v", rep)
	}
}
