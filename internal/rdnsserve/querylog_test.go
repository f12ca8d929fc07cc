package rdnsserve

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"rdnsprivacy/internal/telemetry"
)

func TestQueryLogRingAndSlow(t *testing.T) {
	// 50ms rounds UP to a DefaultLatencyBuckets bound; entries are slow
	// iff strictly above the rounded bound.
	bound := SlowBound(0.050)
	if bound < 0.050 {
		t.Fatalf("SlowBound(0.050) = %g, want >= threshold", bound)
	}
	l := NewQueryLog(QueryLogConfig{Size: 4, SlowThreshold: 50 * time.Millisecond, SlowSize: 2})

	entry := func(i int, secs float64) QueryLogEntry {
		return QueryLogEntry{
			Corr:     fmt.Sprintf("%016x", i+1),
			Endpoint: "at",
			Status:   200,
			TotalNS:  int64(secs * 1e9),
		}
	}
	// 6 entries through a 4-slot ring: the first two evict.
	for i := 0; i < 6; i++ {
		secs := 0.001
		if i >= 4 {
			secs = bound * 2 // slow
		}
		l.record(entry(i, secs))
	}
	if l.Total() != 6 || l.Len() != 4 {
		t.Fatalf("total %d len %d, want 6 and 4", l.Total(), l.Len())
	}
	snap := l.Snapshot()
	if len(snap) != 4 || snap[0].Corr != fmt.Sprintf("%016x", 3) || snap[3].Corr != fmt.Sprintf("%016x", 6) {
		t.Fatalf("snapshot order wrong: %+v", snap)
	}
	if l.SlowLen() != 2 {
		t.Fatalf("slow len %d, want 2", l.SlowLen())
	}
	for _, e := range l.SlowSnapshot() {
		if !e.Slow {
			t.Fatalf("slow snapshot entry not marked slow: %+v", e)
		}
	}
	// An entry exactly AT the bound is not slow (strict bound semantics:
	// slow = landed in a histogram bucket past the bound).
	l.record(QueryLogEntry{Corr: "00000000000000aa", Endpoint: "at", TotalNS: int64(bound * 1e9)})
	if l.SlowLen() != 2 {
		t.Fatalf("at-bound entry counted slow; slow len %d", l.SlowLen())
	}
	// Above the last histogram bound the threshold stays as given.
	bks := telemetry.DefaultLatencyBuckets()
	if huge := 2 * bks[len(bks)-1]; SlowBound(huge) != huge {
		t.Fatalf("SlowBound past last bucket = %g, want %g", SlowBound(huge), huge)
	}
}

func TestQueryLogJSONLRoundTrip(t *testing.T) {
	l := NewQueryLog(QueryLogConfig{Size: 8})
	for i := 0; i < 3; i++ {
		l.record(QueryLogEntry{
			Corr: fmt.Sprintf("%016x", i+1), Endpoint: "range", Client: "key:w1",
			Params: "00000000000000ff", Status: 200, Admission: "admitted",
			Generation: 2, ParseNS: 10, StoreNS: 20, TotalNS: 35, Bytes: 128,
		})
	}
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadQueryLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, l.Snapshot()) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", got, l.Snapshot())
	}
}

// TestQueryLogDigestOrderIndependent proves the identity digest ignores
// arrival order and timing fields — the property the monitor e2e's
// replay-determinism assertion rests on.
func TestQueryLogDigestOrderIndependent(t *testing.T) {
	mk := func(order []int, latency int64) *QueryLog {
		l := NewQueryLog(QueryLogConfig{Size: 8})
		for _, i := range order {
			l.record(QueryLogEntry{
				Corr: fmt.Sprintf("%016x", i), Endpoint: "at", Status: 200,
				Admission: "admitted", Generation: 1, TotalNS: latency, Bytes: int(latency),
			})
		}
		return l
	}
	a := mk([]int{1, 2, 3}, 100)
	b := mk([]int{3, 1, 2}, 999999) // reordered, different latencies
	if a.Digest() != b.Digest() {
		t.Fatalf("digest depends on order or timing: %016x vs %016x", a.Digest(), b.Digest())
	}
	c := mk([]int{1, 2, 4}, 100) // different identity
	if a.Digest() == c.Digest() {
		t.Fatal("digest blind to entry identity")
	}
}

func TestQueryLogNilSafe(t *testing.T) {
	var l *QueryLog
	l.record(QueryLogEntry{})
	if l.Len() != 0 || l.SlowLen() != 0 || l.Total() != 0 || l.Snapshot() != nil || l.SlowSnapshot() != nil {
		t.Fatal("nil QueryLog not inert")
	}
}

func TestCorrFromHeader(t *testing.T) {
	for hdr, want := range map[string]uint64{
		"00000000000000ff": 0xff,
		"6a38418e52828837": 0x6a38418e52828837,
		"":                 0,
		"ff":               0, // wrong length
		"zzzzzzzzzzzzzzzz": 0, // not hex
		"00000000000000f":  0,
	} {
		if got := corrFromHeader(hdr); got != want {
			t.Errorf("corrFromHeader(%q) = %#x, want %#x", hdr, got, want)
		}
	}
	// What a client stamps on a request is what the daemon reads back.
	for _, id := range []uint64{1, 0xff, 0x6a38418e52828837, ^uint64(0)} {
		if got := corrFromHeader(telemetry.CorrHex(id)); got != id {
			t.Errorf("corrFromHeader(CorrHex(%#x)) = %#x", id, got)
		}
	}
}

// SlowSnapshot copies the buffered slow entries, oldest first.
func (l *QueryLog) SlowSnapshot() []QueryLogEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return snapshotRing(l.slow, l.snext, l.sfull)
}
