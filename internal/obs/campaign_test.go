package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/obs"
	"rdnsprivacy/internal/scan"
	"rdnsprivacy/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// campaignFrames runs a seeded multi-day campaign with an observer
// attached and returns its frame series.
func campaignFrames(tb testing.TB, seed uint64, days int) []obs.Frame {
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
	reg := telemetry.NewRegistry()
	rec := obs.NewRecorder(reg)
	start := time.Date(2021, 1, 4, 0, 0, 0, 0, time.UTC)
	scan.Run(scan.Campaign{
		Universe:  u,
		Start:     start,
		End:       start.AddDate(0, 0, days-1),
		Cadence:   scan.Daily,
		Telemetry: reg,
		Observer:  rec,
	})
	return rec.Frames()
}

// TestSLOVerdictsGolden pins the full observability verdict of a seeded
// ten-day campaign — frames, SLO report, anomaly flags — against a golden
// file. Regenerate with: go test ./internal/obs -run Golden -update
func TestSLOVerdictsGolden(t *testing.T) {
	frames := campaignFrames(t, 42, 10)
	if len(frames) != 10 {
		t.Fatalf("frames = %d, want 10", len(frames))
	}
	digest, err := obs.FramesDigest(frames)
	if err != nil {
		t.Fatal(err)
	}
	report := obs.DefaultRules().Evaluate(frames)
	anomalies := obs.Detector{Seed: 42}.Detect(frames)

	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	enc.SetIndent("", "  ")
	for _, v := range []any{
		map[string]string{"frames_digest": obs.Hex16(digest)},
		frames, report, anomalies,
	} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}

	golden := filepath.Join("testdata", "slo_verdicts.golden")
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

// TestFrameReplayProperty replays seeded campaigns across many seeds and
// checks the two obs determinism contracts: the frame JSONL round-trips
// losslessly, and re-running the same seed reproduces it bit-identically
// (including SLO verdicts and anomaly flags).
func TestFrameReplayProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("50-seed property sweep")
	}
	for seed := uint64(0); seed < 50; seed++ {
		frames := campaignFrames(t, seed, 3)
		if len(frames) != 3 {
			t.Fatalf("seed %d: frames = %d, want 3", seed, len(frames))
		}

		// Lossless JSONL round-trip.
		var buf bytes.Buffer
		if err := obs.WriteFrames(&buf, frames); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		encoded := append([]byte(nil), buf.Bytes()...)
		parsed, err := obs.ReadFrames(&buf)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var again bytes.Buffer
		if err := obs.WriteFrames(&again, parsed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(encoded, again.Bytes()) {
			t.Fatalf("seed %d: JSONL round-trip not lossless", seed)
		}

		// Replay determinism: same seed, bit-identical series and verdicts.
		replay := campaignFrames(t, seed, 3)
		d1, _ := obs.FramesDigest(frames)
		d2, _ := obs.FramesDigest(replay)
		if d1 != d2 {
			t.Fatalf("seed %d: replay digest %016x != %016x", seed, d2, d1)
		}
		r1, _ := json.Marshal(obs.DefaultRules().Evaluate(frames))
		r2, _ := json.Marshal(obs.DefaultRules().Evaluate(replay))
		if !bytes.Equal(r1, r2) {
			t.Fatalf("seed %d: SLO reports diverged", seed)
		}
		a1, _ := json.Marshal(obs.Detector{Seed: int64(seed)}.Detect(frames))
		a2, _ := json.Marshal(obs.Detector{Seed: int64(seed)}.Detect(replay))
		if !bytes.Equal(a1, a2) {
			t.Fatalf("seed %d: anomaly flags diverged", seed)
		}
	}
}

// TestConcurrentCaptureDuringSweep hammers the recorder from a capturing
// campaign and concurrent readers at once — run under -race, it proves a
// live sweep can be observed while frames are being written.
func TestConcurrentCaptureDuringSweep(t *testing.T) {
	u, err := netsim.BuildStudyUniverse(netsim.UniverseConfig{
		Seed:                  7,
		FillerSlash24s:        30,
		LeakyNetworks:         4,
		NonLeakyDynamic:       1,
		PeoplePerDynamicBlock: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	rec := obs.NewRecorder(reg)
	start := time.Date(2021, 1, 4, 0, 0, 0, 0, time.UTC)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = rec.Frames()
				_ = rec.Store().WriteJSONL(io.Discard)
			}
		}()
	}
	scan.Run(scan.Campaign{
		Universe:  u,
		Start:     start,
		End:       start.AddDate(0, 0, 11),
		Cadence:   scan.Daily,
		Telemetry: reg,
		Observer:  rec,
	})
	close(done)
	wg.Wait()

	if got := rec.Store().Len(); got != 12 {
		t.Fatalf("retained frames = %d, want all 12", got)
	}
}
