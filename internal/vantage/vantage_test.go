package vantage_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/faultsim"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/obs"
	"rdnsprivacy/internal/scan"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
	"rdnsprivacy/internal/testutil"
	"rdnsprivacy/internal/vantage"
)

var update = flag.Bool("update", false, "rewrite golden files")

func testUniverse(tb testing.TB, seed uint64) *netsim.Universe {
	tb.Helper()
	u, err := netsim.BuildStudyUniverse(netsim.UniverseConfig{
		Seed:                  seed,
		FillerSlash24s:        30,
		LeakyNetworks:         4,
		NonLeakyDynamic:       1,
		PeoplePerDynamicBlock: 6,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return u
}

// threeVantages is the canonical test fleet: alpha measures cleanly,
// bravo loses and SERVFAILs a slice of its queries (one scan-level
// retry), charlie serves 30% of its answers from a day-old view.
func threeVantages(seed int64) []vantage.Vantage {
	everywhere := dnswire.Prefix{} // 0.0.0.0/0 contains everything
	return []vantage.Vantage{
		{Name: "alpha", Seed: seed + 1},
		{
			Name: "bravo", Seed: seed + 2,
			Faults:   []faultsim.Profile{{Prefix: everywhere, Loss: 0.05, ServFailRate: 0.02}},
			Attempts: 2,
		},
		{Name: "charlie", Seed: seed + 3, LagRate: 0.3, LagDays: 1},
	}
}

func runCampaign(tb testing.TB, seed int64, days int, rec *obs.Recorder, reg *telemetry.Registry) *vantage.Result {
	tb.Helper()
	start := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	res, err := vantage.Run(tb.Context(), vantage.Campaign{
		Universe:     testUniverse(tb, uint64(seed)),
		Start:        start,
		End:          start.AddDate(0, 0, days-1),
		Cadence:      scan.Daily,
		Workers:      4,
		Vantages:     threeVantages(seed),
		StoreDir:     tb.TempDir(),
		CompactEvery: 4,
		LagWindow:    1,
		Telemetry:    reg,
		Observer:     rec,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestVantageGoldenReport pins a seeded 3-vantage 10-day campaign's full
// disagreement report and obs frame series against a golden file, and
// asserts the injected per-vantage faults land on the right vantages.
// Regenerate with: go test ./internal/vantage -run Golden -update
func TestVantageGoldenReport(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := obs.NewRecorder(reg)
	res := runCampaign(t, 42, 10, rec, reg)
	rep := res.Report
	if len(rep.Days) != 10 {
		t.Fatalf("report days = %d, want 10", len(rep.Days))
	}
	if len(res.Dates) != 10 {
		t.Fatalf("dates = %d, want 10", len(res.Dates))
	}
	for _, vr := range res.Vantages {
		if vr.Err != nil {
			t.Fatalf("vantage %s: %v", vr.Name, vr.Err)
		}
		if len(vr.Days) != 10 {
			t.Fatalf("vantage %s: %d day tallies, want 10", vr.Name, len(vr.Days))
		}
	}

	// Vantage attribution: the faults we injected show up on the vantage
	// that has them, and nowhere harder than the clean baseline.
	per := make(map[string]vantage.VantageTally)
	for _, vt := range rep.PerVantage {
		per[vt.Name] = vt
	}
	alpha, bravo, charlie := per["alpha"], per["bravo"], per["charlie"]
	if alpha.Conflicts != 0 {
		t.Errorf("clean alpha has %d conflicts", alpha.Conflicts)
	}
	if bravo.Missed+bravo.Lagged == 0 {
		t.Errorf("lossy bravo shows no missed/lagged records")
	}
	if bravo.Missed+bravo.Lagged <= alpha.Missed+alpha.Lagged {
		t.Errorf("lossy bravo (%d) not above clean alpha (%d) on missed+lagged",
			bravo.Missed+bravo.Lagged, alpha.Missed+alpha.Lagged)
	}
	if charlie.Lagged == 0 {
		t.Errorf("laggy charlie shows no lagged records")
	}
	if charlie.Lagged <= alpha.Lagged {
		t.Errorf("laggy charlie (%d) not above clean alpha (%d) on lagged",
			charlie.Lagged, alpha.Lagged)
	}
	if rep.Totals.Changes == 0 {
		t.Error("campaign saw no reference changes")
	}
	if rep.Totals.MeanCorroboration <= 0 || rep.Totals.MeanCorroboration > 1 {
		t.Errorf("mean corroboration %v out of range", rep.Totals.MeanCorroboration)
	}

	// Frames carry the vantage block and pass through the SLO rule.
	frames := rec.Frames()
	if len(frames) != 10 {
		t.Fatalf("frames = %d, want 10", len(frames))
	}
	for i, f := range frames {
		if f.Vantage == nil {
			t.Fatalf("frame %d has no vantage stats", i)
		}
		if f.Vantage.Vantages != 3 {
			t.Fatalf("frame %d vantages = %d, want 3", i, f.Vantage.Vantages)
		}
	}
	framesDigest, err := obs.FramesDigest(frames)
	if err != nil {
		t.Fatal(err)
	}

	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	enc.SetIndent("", "  ")
	for _, v := range []any{
		map[string]string{
			"report_digest": rep.Digest(),
			"frames_digest": obs.Hex16(framesDigest),
		},
		rep,
		frames,
	} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	golden := filepath.Join("testdata", "vantage_report.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("golden mismatch (regenerate with -update if intended)\ngot:\n%s", got.String())
	}
}

// TestVantageReplayDeterminism replays seeded campaigns across many
// seeds: same seeds, bit-identical report JSON, report digest, and obs
// frame digests — the campaign contract everything downstream (goldens,
// dashboards, SLO verdicts) rests on.
func TestVantageReplayDeterminism(t *testing.T) {
	seeds := int64(50)
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(0); seed < seeds; seed++ {
		reg1 := telemetry.NewRegistry()
		rec1 := obs.NewRecorder(reg1)
		res1 := runCampaign(t, seed, 3, rec1, reg1)
		reg2 := telemetry.NewRegistry()
		rec2 := obs.NewRecorder(reg2)
		res2 := runCampaign(t, seed, 3, rec2, reg2)

		if d1, d2 := res1.Report.Digest(), res2.Report.Digest(); d1 != d2 {
			t.Fatalf("seed %d: report digest %s != %s", seed, d2, d1)
		}
		j1, _ := json.Marshal(res1.Report)
		j2, _ := json.Marshal(res2.Report)
		if !bytes.Equal(j1, j2) {
			t.Fatalf("seed %d: report JSON diverged", seed)
		}
		f1, err := obs.FramesDigest(rec1.Frames())
		if err != nil {
			t.Fatal(err)
		}
		f2, err := obs.FramesDigest(rec2.Frames())
		if err != nil {
			t.Fatal(err)
		}
		if f1 != f2 {
			t.Fatalf("seed %d: frames digest %016x != %016x", seed, f2, f1)
		}
	}
}

// TestVantageCampaignRace is the -race battery: three vantage appenders
// writing their stores concurrently with live compaction, observer reads
// hammering the frame ring mid-run, then concurrent reads (every block of
// every vantage, a full Analyze) over the reopened per-vantage stores.
// VerifyNoLeaks proves every goroutine drains.
func TestVantageCampaignRace(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	reg := telemetry.NewRegistry()
	rec := obs.NewRecorder(reg)
	dir := t.TempDir()
	start := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)

	done := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = rec.Frames()
			}
		}()
	}
	res, err := vantage.Run(t.Context(), vantage.Campaign{
		Universe:     testUniverse(t, 7),
		Start:        start,
		End:          start.AddDate(0, 0, 7),
		Cadence:      scan.Daily,
		Workers:      4,
		Vantages:     threeVantages(7),
		StoreDir:     dir,
		CompactEvery: 2,
		Telemetry:    reg,
		Observer:     rec,
	})
	close(done)
	readers.Wait()
	if err != nil {
		t.Fatal(err)
	}

	stores := make(map[string]*histstore.Store)
	for _, w := range []string{"alpha", "bravo", "charlie"} {
		ro, err := histstore.Open(filepath.Join(dir, w), histstore.WithReadOnly(), histstore.WithCache(64))
		if err != nil {
			t.Fatal(err)
		}
		defer ro.Close()
		stores[w] = ro
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for w, ro := range stores {
				times := ro.Times()
				if len(times) != 8 {
					t.Errorf("vantage %s: %d snapshots, want 8", w, len(times))
					return
				}
				for _, p := range ro.Blocks() {
					if err := ro.EachSnapshot(t.Context(), p, times[0], times[len(times)-1], func(time.Time, scanengine.Blocks) error { return nil }); err != nil {
						t.Error(err)
						return
					}
				}
			}
			rep, err := vantage.Analyze(stores, vantage.Config{LagWindow: 1})
			if err != nil {
				t.Error(err)
				return
			}
			if d := rep.Digest(); d != res.Report.Digest() {
				t.Errorf("concurrent analyze digest %s != campaign %s", d, res.Report.Digest())
			}
		}()
	}
	wg.Wait()
}

// storedDays reads one vantage's history back from its store under dir:
// for each of its snapshot instants (Unix seconds), every non-empty block
// it held then. A vantage that never appended has none.
func storedDays(t *testing.T, dir, vantage string) map[int64]map[dnswire.Prefix]map[byte]dnswire.Name {
	t.Helper()
	out := make(map[int64]map[dnswire.Prefix]map[byte]dnswire.Name)
	ro, err := histstore.Open(filepath.Join(dir, vantage), histstore.WithReadOnly())
	if errors.Is(err, histstore.ErrNoStore) {
		return out
	}
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	err = ro.EachSnapshot(t.Context(), dnswire.Prefix{}, time.Time{}, time.Unix(1<<40, 0), func(at time.Time, snap scanengine.Blocks) error {
		day := make(map[dnswire.Prefix]map[byte]dnswire.Name)
		for _, b := range snap {
			day[b.Prefix] = make(map[byte]dnswire.Name)
			for _, e := range b.Entries {
				day[b.Prefix][e.Octet] = e.Name
			}
		}
		out[at.Unix()] = day
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sixDays is the seed-7 three-vantage campaign over six days, compacting
// every two appends, into dir.
func sixDays(t *testing.T, dir string, reg *telemetry.Registry) vantage.Campaign {
	start := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	return vantage.Campaign{
		Universe:     testUniverse(t, 7),
		Start:        start,
		End:          start.AddDate(0, 0, 5),
		Cadence:      scan.Daily,
		Workers:      2,
		Vantages:     threeVantages(7),
		StoreDir:     dir,
		CompactEvery: 2,
		Telemetry:    reg,
	}
}

// TestVantageRunCancelled cancels a campaign before it starts and again
// once four sweeps have finished. Run must return the cancellation, and
// no vantage may hold a partial day: each writer stores exactly the days
// its run reports, each equal to the same day of an uncancelled campaign,
// and vantage_appends_total counts exactly the days stored.
func TestVantageRunCancelled(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	refDir := t.TempDir()
	if _, err := vantage.Run(t.Context(), sixDays(t, refDir, nil)); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []uint64{0, 4} {
		dir := t.TempDir()
		reg := telemetry.NewRegistry()
		ctx, cancel := context.WithCancel(t.Context())
		watched := make(chan struct{})
		if cut == 0 {
			cancel()
			close(watched)
		} else {
			go func() {
				defer close(watched)
				for reg.Counter(vantage.MetricSweeps).Value() < cut && ctx.Err() == nil {
					time.Sleep(100 * time.Microsecond)
				}
				cancel()
			}()
		}
		res, err := vantage.Run(ctx, sixDays(t, dir, reg))
		cancel()
		<-watched
		if (cut == 0 || err != nil) && !errors.Is(err, context.Canceled) {
			t.Fatalf("cut %d: err = %v, want context.Canceled", cut, err)
		}
		stored := 0
		for _, vr := range res.Vantages {
			if cut == 0 && (!errors.Is(vr.Err, context.Canceled) || len(vr.Days) != 0) {
				t.Fatalf("pre-cancelled vantage %s: err %v after %d days", vr.Name, vr.Err, len(vr.Days))
			}
			got, want := storedDays(t, dir, vr.Name), storedDays(t, refDir, vr.Name)
			if len(got) != len(vr.Days) {
				t.Fatalf("cut %d: vantage %s stored %d days but swept %d", cut, vr.Name, len(got), len(vr.Days))
			}
			for day, blocks := range got {
				if !reflect.DeepEqual(blocks, want[day]) {
					t.Fatalf("cut %d: vantage %s stored a day %d unlike the uncancelled campaign's", cut, vr.Name, day)
				}
			}
			stored += len(got)
		}
		if n := reg.Counter(vantage.MetricAppends).Value(); n != uint64(stored) {
			t.Fatalf("cut %d: %s = %d, %d days stored", cut, vantage.MetricAppends, n, stored)
		}
		t.Logf("cut after %d sweeps: %d of 18 days stored, err %v", cut, stored, err)
	}
}

// TestVantageAppendsCountStored fails one append of the fleet and
// requires the failing vantage to report it, persistence to stop there,
// and vantage_appends_total to count exactly the snapshots stored.
func TestVantageAppendsCountStored(t *testing.T) {
	injected := errors.New("injected append failure")
	var writes atomic.Int32
	testutil.SetFaultHook(func(point string) error {
		if point == "histstore.append.write" && writes.Add(1) == 5 {
			return injected
		}
		return nil
	})
	defer testutil.SetFaultHook(nil)
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	res, err := vantage.Run(t.Context(), sixDays(t, dir, reg))
	testutil.SetFaultHook(nil)
	if err != nil {
		t.Fatal(err)
	}
	stored, failed := 0, 0
	for _, vr := range res.Vantages {
		if vr.Err != nil {
			if !errors.Is(vr.Err, injected) {
				t.Fatalf("vantage %s: %v", vr.Name, vr.Err)
			}
			failed++
		}
		if len(vr.Days) != 6 {
			t.Fatalf("vantage %s swept %d days, want 6", vr.Name, len(vr.Days))
		}
		stored += len(storedDays(t, dir, vr.Name))
	}
	if failed != 1 || stored >= 18 {
		t.Fatalf("%d vantages failed and %d of 18 days stored, want 1 and fewer", failed, stored)
	}
	if n := reg.Counter(vantage.MetricAppends).Value(); n != uint64(stored) {
		t.Fatalf("%s = %d, %d days stored", vantage.MetricAppends, n, stored)
	}
}

// TestCampaignValidation covers the orchestrator's rejection paths.
func TestCampaignValidation(t *testing.T) {
	u := testUniverse(t, 1)
	base := vantage.Campaign{Universe: u, StoreDir: t.TempDir(),
		Vantages: []vantage.Vantage{{Name: "a"}}}
	cases := []struct {
		name string
		mut  func(*vantage.Campaign)
	}{
		{"no universe", func(c *vantage.Campaign) { c.Universe = nil }},
		{"no store", func(c *vantage.Campaign) { c.StoreDir = "" }},
		{"no vantages", func(c *vantage.Campaign) { c.Vantages = nil }},
		{"unnamed vantage", func(c *vantage.Campaign) { c.Vantages = []vantage.Vantage{{}} }},
		{"duplicate vantage", func(c *vantage.Campaign) {
			c.Vantages = []vantage.Vantage{{Name: "a"}, {Name: "a"}}
		}},
	}
	for _, tc := range cases {
		c := base
		tc.mut(&c)
		if _, err := vantage.Run(t.Context(), c); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// BenchmarkVantageAnalyze measures the disagreement analysis of a seeded
// three-vantage 10-day campaign over its reopened stores: every view read
// back from its store and classified. The campaign runs once, before the
// timer.
func BenchmarkVantageAnalyze(b *testing.B) {
	start := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	dir := b.TempDir()
	_, err := vantage.Run(b.Context(), vantage.Campaign{
		Universe: testUniverse(b, 42),
		Start:    start, End: start.AddDate(0, 0, 9),
		Cadence:      scan.Daily,
		Workers:      4,
		Vantages:     threeVantages(42),
		StoreDir:     dir,
		CompactEvery: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	stores := make(map[string]*histstore.Store)
	for _, v := range threeVantages(42) {
		ro, err := histstore.Open(filepath.Join(dir, v.Name), histstore.WithReadOnly())
		if err != nil {
			b.Fatal(err)
		}
		defer ro.Close()
		stores[v.Name] = ro
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vantage.Analyze(stores, vantage.Config{LagWindow: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
