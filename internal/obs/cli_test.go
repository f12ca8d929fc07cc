package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
)

// TestSplitList: a list flag tolerates spaces, empty items and trailing
// slashes (a target is joined with "/v1/..." later).
func TestSplitList(t *testing.T) {
	got := SplitList(" http://a:8077/ ,,http://b:8078 , ")
	if want := []string{"http://a:8077", "http://b:8078"}; !slices.Equal(got, want) {
		t.Fatalf("SplitList = %q, want %q", got, want)
	}
	if got := SplitList(""); got != nil {
		t.Fatalf("SplitList of nothing = %q", got)
	}
}

// TestRegisterFlags: the five -slo-* flags land in their rules, and the
// defaults hold where no flag is given.
func TestRegisterFlags(t *testing.T) {
	var r LoadRules
	fs := flag.NewFlagSet("judge", flag.ContinueOnError)
	r.RegisterFlags(fs)
	if err := fs.Parse([]string{"-slo-p99", "0.5", "-slo-max-lag-bytes", "-1"}); err != nil {
		t.Fatal(err)
	}
	want := LoadRules{MaxShedRate: 0.01, MaxP95Seconds: 1, MaxP99Seconds: 0.5, MaxReplicaLagBytes: -1}
	if r != want {
		t.Fatalf("rules %+v, want %+v", r, want)
	}
}

// TestWriteDumps: each dump lands as JSONL with a line on w naming it, a
// missing source or path skips it, and a failed create is reported.
func TestWriteDumps(t *testing.T) {
	dir := t.TempDir()
	tr := telemetry.NewTracer(1, 8)
	tr.StartSpan("scan.shard", "10.0.0.0/24").End()
	rec := NewRecorder(telemetry.NewRegistry())
	rec.CaptureFrame(0, day(0), &scanengine.Snapshot{})

	var w bytes.Buffer
	spans, frames := filepath.Join(dir, "spans.jsonl"), filepath.Join(dir, "frames.jsonl")
	WriteDumps(&w, tr, spans, rec, frames)
	if got, want := w.String(), "trace: wrote 1 spans to "+spans+"\nobs: wrote 1 frames to "+frames+"\n"; got != want {
		t.Fatalf("report %q, want %q", got, want)
	}
	for _, p := range []string{spans, frames} {
		if b, err := os.ReadFile(p); err != nil || bytes.Count(b, []byte("\n")) != 1 {
			t.Fatalf("%s: %q, %v; want one JSONL line", p, b, err)
		}
	}

	w.Reset()
	WriteDumps(&w, nil, spans, rec, "")
	WriteDumps(&w, tr, filepath.Join(dir, "missing", "spans.jsonl"), nil, frames)
	if got := w.String(); !strings.HasPrefix(got, "trace: ") || strings.Count(got, "\n") != 1 || strings.Contains(got, "wrote") {
		t.Fatalf("skips and a failed create reported %q", got)
	}
}
