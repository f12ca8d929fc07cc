package scan

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/histstore"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/obs"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
	"rdnsprivacy/internal/testutil"
)

// sequentialRun is Run as it was before the sweep and the consumer stage
// overlapped: one loop that sweeps a date, then appends, compacts,
// captures and folds it before sweeping the next. It is the oracle of
// TestPipelineMatchesSequentialLoop.
func sequentialRun(c Campaign) *Result {
	dates := dataset.DateRange(c.Start, c.End, c.Cadence.IntervalDays())
	series := dataset.NewCountSeries(dates)
	collector := dataset.NewStatsCollector(c.Cadence.String())
	if !c.SkipFiller {
		FoldFiller(c.Universe, dates, collector, series, nil)
	}
	netsOnly := c
	netsOnly.SkipFiller = true
	src := NewSource(netsOnly)
	targets := src.Targets()
	sc := scanengine.New(src, c.engineOptions()...)
	if c.Store != nil {
		c.Observer.SetStoreStats(func() obs.StoreStats { return StoreStats(c.Store) })
	}
	var storeErr error
	ctx := context.Background()
	for i, d := range dates {
		at := d.Add(timeOfDay)
		snap, err := sc.Scan(ctx, scanengine.Request{Targets: targets, At: at})
		if err != nil {
			break
		}
		if c.Store != nil && storeErr == nil {
			storeErr = c.Store.Append(at, snap.Records)
			if storeErr == nil && c.CompactEvery > 0 && (i+1)%c.CompactEvery == 0 {
				_, storeErr = c.Store.CompactWriter(ctx, c.Store.WriterID(), histstore.CompactOptions{MinSeal: c.CompactEvery})
			}
		}
		c.Observer.CaptureFrame(i, d, snap)
		for ip, name := range snap.Records {
			collector.Observe(d, ip, name)
			series.Add(ip.Slash24(), i, 1)
		}
	}
	r := &Result{Series: series, Stats: collector.Stats(), StoreErr: storeErr}
	r.Stats.Start = c.Start
	r.Stats.End = c.End
	return r
}

// storeFiles reads every file of a store directory.
func storeFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// campaignRun is one campaign run into a fresh store, with what it leaves.
type campaignRun struct {
	res       *Result
	snapshots int // the store's length when the campaign returned
	files     map[string][]byte
	frames    []obs.Frame
	hooked    []hookCall // the OnSnapshot calls, in call order
}

// hookCall is one OnSnapshot call: the date's index, the date, and how
// many records the set held.
type hookCall struct {
	i       int
	date    time.Time
	records int
}

// runInto runs a 12-day, two-network campaign compacting every 3 days into
// a fresh store through run, with the observer and telemetry attached when
// observed is set — the configuration in which a frame must wait for the
// next sweep.
func runInto(t *testing.T, u *netsim.Universe, observed bool, run func(Campaign) *Result) campaignRun {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "campaign")
	var reg *telemetry.Registry
	var opts []histstore.Option
	if observed {
		reg = telemetry.NewRegistry()
		opts = append(opts, histstore.WithTelemetry(reg))
	}
	st, err := histstore.Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2021, 11, 19, 0, 0, 0, 0, time.UTC)
	c := Campaign{
		Universe:     &netsim.Universe{Networks: u.Networks[:2]},
		Start:        start,
		End:          start.AddDate(0, 0, 11),
		Cadence:      Daily,
		SkipFiller:   true,
		Store:        st,
		CompactEvery: 3,
	}
	if observed {
		c.Telemetry = reg
		c.Observer = obs.NewRecorder(reg)
	}
	var hooked []hookCall
	c.OnSnapshot = func(i int, date time.Time, snap *scanengine.Snapshot) {
		hooked = append(hooked, hookCall{i, date, snap.Blocks.Len()})
	}
	res := run(c)
	n := st.Len()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return campaignRun{res: res, snapshots: n, files: storeFiles(t, dir), frames: c.Observer.Frames(), hooked: hooked}
}

// TestPipelineMatchesSequentialLoop requires the two-stage Run to leave
// what the one-loop campaign leaves — the same store file bytes, count
// series, statistics and obs frames — both when the sweep overlaps the
// whole consumer stage and when an observer with telemetry makes it wait
// for each frame. Then it fails the fourth append and requires StoreErr to
// be that failure, no later day to reach the store, and the series and
// statistics still to cover every date.
func TestPipelineMatchesSequentialLoop(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	u := smallUniverse(t)
	for _, observed := range []bool{false, true} {
		got := runInto(t, u, observed, Run)
		want := runInto(t, u, observed, sequentialRun)
		if got.res.StoreErr != nil || want.res.StoreErr != nil {
			t.Fatalf("observed=%v: store errors %v / %v", observed, got.res.StoreErr, want.res.StoreErr)
		}
		if len(got.files) != len(want.files) || len(got.files) < 3 {
			t.Fatalf("observed=%v: store files %d, sequential %d", observed, len(got.files), len(want.files))
		}
		for name, b := range want.files {
			if !bytes.Equal(got.files[name], b) {
				t.Fatalf("observed=%v: store file %s differs from the sequential campaign's", observed, name)
			}
		}
		if !reflect.DeepEqual(got.res.Series, want.res.Series) {
			t.Fatalf("observed=%v: count series differ", observed)
		}
		if !reflect.DeepEqual(got.res.Stats, want.res.Stats) {
			t.Fatalf("observed=%v: stats %+v, sequential %+v", observed, got.res.Stats, want.res.Stats)
		}
		if observed && len(want.frames) != 12 {
			t.Fatalf("sequential campaign captured %d frames, want 12", len(want.frames))
		}
		if !reflect.DeepEqual(got.frames, want.frames) {
			t.Fatalf("observed=%v: frames differ\n got  %+v\n want %+v", observed, got.frames, want.frames)
		}
		// The hook sees every date once, in order, after the fold that
		// counted the same records.
		if len(got.hooked) != len(got.res.Series.Dates) {
			t.Fatalf("observed=%v: OnSnapshot called %d times over %d dates", observed, len(got.hooked), len(got.res.Series.Dates))
		}
		for j, h := range got.hooked {
			total := 0
			for _, row := range got.res.Series.Counts {
				total += row[j]
			}
			if h.i != j || !h.date.Equal(got.res.Series.Dates[j]) || h.records != total {
				t.Fatalf("observed=%v: call %d = %+v, want index %d, %v, %d records", observed, j, h, j, got.res.Series.Dates[j], total)
			}
		}
	}

	clean := runInto(t, u, false, Run)
	injected := errors.New("injected append failure")
	writes := 0
	testutil.SetFaultHook(func(point string) error {
		if point != "histstore.append.write" {
			return nil
		}
		if writes++; writes == 4 {
			return injected
		}
		return nil
	})
	defer testutil.SetFaultHook(nil)
	failed := runInto(t, u, false, Run)
	testutil.SetFaultHook(nil)
	if !errors.Is(failed.res.StoreErr, injected) {
		t.Fatalf("StoreErr = %v, want the injected failure", failed.res.StoreErr)
	}
	if writes != 4 || failed.snapshots != 3 {
		t.Fatalf("%d append writes and %d snapshots stored, want 4 and 3: persistence must stop at the first failure", writes, failed.snapshots)
	}
	if !reflect.DeepEqual(failed.res.Series, clean.res.Series) || !reflect.DeepEqual(failed.res.Stats, clean.res.Stats) {
		t.Fatal("a store failure changed the series or statistics: the sweep must cover every date")
	}
	if len(failed.res.Series.Dates) != 12 {
		t.Fatalf("series covers %d dates, want 12", len(failed.res.Series.Dates))
	}
}

// TestRunContextCancelled cancels a campaign from its hook on day k (or
// before it starts, k = 0) and requires RunContext to return the
// cancellation with exactly k days stored, hooked, captured and folded:
// days swept in full before the cancel reached the consumer go no further.
func TestRunContextCancelled(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	u := smallUniverse(t)
	start := time.Date(2021, 11, 19, 0, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		k        int
		observed bool
	}{{0, false}, {4, false}, {4, true}} {
		st, err := histstore.Open(filepath.Join(t.TempDir(), "campaign"))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(t.Context())
		c := Campaign{
			Universe:     &netsim.Universe{Networks: u.Networks[:2]},
			Start:        start,
			End:          start.AddDate(0, 0, 11),
			Cadence:      Daily,
			Store:        st,
			CompactEvery: 3,
		}
		if tc.observed {
			reg := telemetry.NewRegistry()
			c.Telemetry = reg
			c.Observer = obs.NewRecorder(reg)
		}
		calls := 0
		c.OnSnapshot = func(int, time.Time, *scanengine.Snapshot) {
			if calls++; calls == tc.k {
				cancel()
			}
		}
		if tc.k == 0 {
			cancel()
		}
		res, err := RunContext(ctx, c)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%+v: err = %v, want context.Canceled", tc, err)
		}
		if calls != tc.k || st.Len() != tc.k {
			t.Fatalf("%+v: hook ran %d times and the store holds %d snapshots, want %d each", tc, calls, st.Len(), tc.k)
		}
		if res.StoreErr != nil {
			t.Fatalf("%+v: store error %v", tc, res.StoreErr)
		}
		folded := 0
		for _, row := range res.Series.Counts {
			for j, n := range row {
				if n > 0 && j+1 > folded {
					folded = j + 1
				}
			}
		}
		if folded != tc.k {
			t.Fatalf("%+v: the series counts records through day %d, want %d", tc, folded, tc.k)
		}
		if tc.observed && len(c.Observer.Frames()) != tc.k {
			t.Fatalf("%+v: %d frames captured, want %d", tc, len(c.Observer.Frames()), tc.k)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
