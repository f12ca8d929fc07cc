package histstore

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/scanengine"
	"rdnsprivacy/internal/telemetry"
)

// TestStoreTelemetry pins the hist_* instruments against Stats() across
// the store's whole lifecycle — append, query, compact — on a durable
// (WithSync) writer. Every counter a dashboard would alert on must agree
// with the stats surface the daemon serves.
func TestStoreTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	dir := t.TempDir() + "/hist"
	st, err := Open(dir, WithTelemetry(reg), WithSync(), WithBaseInterval(3), WithCache(16))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.WriterID(); got != DefaultWriter {
		t.Fatalf("WriterID() = %q, want %q", got, DefaultWriter)
	}

	start := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	var times []time.Time
	for day := 0; day < 12; day++ {
		d := start.AddDate(0, 0, day)
		times = append(times, d)
		recs := scanengine.RecordSet{
			dnswire.MustIPv4("10.0.1.7"): dnswire.MustName("brians-iphone.lan.example.net"),
			dnswire.MustIPv4("10.0.1.9"): dnswire.MustName("host-" + d.Format("2") + ".dyn.example.net"),
		}
		if err := st.Append(d, recs); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range times {
		if _, _, err := st.At(dnswire.MustIPv4("10.0.1.7"), d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.CompactWriter(context.Background(), DefaultWriter, CompactOptions{}); err != nil {
		t.Fatal(err)
	}

	s, snap := st.Stats(), reg.Snapshot()
	counters := map[string]uint64{
		MetricAppends:       12,
		MetricCompactions:   1,
		MetricCompactSealed: 12,
		MetricCacheHits:     s.CacheHits,
		MetricCacheMisses:   s.CacheMisses,
	}
	for name, want := range counters {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	gauges := map[string]int64{
		MetricSnapshots:   int64(s.Snapshots),
		MetricBlocks:      int64(s.Blocks),
		MetricBytes:       s.Bytes,
		MetricSegments:    int64(s.Segments),
		MetricSealedBytes: s.SealedBytes,
	}
	for name, want := range gauges {
		if got := snap.Gauges[name]; got != want {
			t.Errorf("%s = %d, stats say %d", name, got, want)
		}
	}
	if s.Snapshots != 12 || s.Segments != 1 || s.Compaction.Runs != 1 || s.Compaction.SealedSnapshots != 12 {
		t.Fatalf("lifecycle stats: %+v", s)
	}
	if snap.Counters[MetricAppendBytes] == 0 || snap.Counters[MetricBaseFrames] == 0 ||
		snap.Counters[MetricDeltaFrames] == 0 || snap.Counters[MetricReconstructions] == 0 {
		t.Fatal("write-path counters never moved")
	}
}

// TestRetryableOpenError pins the unwrap contract Open's retry loop
// depends on: the wrapper preserves the cause for errors.Is and renders
// its message.
func TestRetryableOpenError(t *testing.T) {
	e := &retryableOpenError{err: io.ErrUnexpectedEOF}
	if !errors.Is(e, io.ErrUnexpectedEOF) {
		t.Fatal("retryableOpenError hides its cause from errors.Is")
	}
	if e.Error() != io.ErrUnexpectedEOF.Error() {
		t.Fatalf("Error() = %q", e.Error())
	}
}
