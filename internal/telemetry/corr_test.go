package telemetry_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"rdnsprivacy/internal/telemetry"
)

// TestMix64AndUnitFloat pins the shared mixer: a fixed output (every
// seeded report in the tree hangs off it), sensitivity to each word and to
// their order, and UnitFloat's range.
func TestMix64AndUnitFloat(t *testing.T) {
	if got := telemetry.Mix64(42, 7, 1); got != 0xc8693415a3699120 {
		t.Fatalf("Mix64(42, 7, 1) = %#x: the mixer's constants moved", got)
	}
	if telemetry.Mix64(1, 2) == telemetry.Mix64(2, 1) || telemetry.Mix64(1) == telemetry.Mix64(1, 0) {
		t.Fatal("Mix64 ignores word order or count")
	}
	for i := uint64(0); i < 1000; i++ {
		if u := telemetry.UnitFloat(telemetry.Mix64(i)); u < 0 || u >= 1 {
			t.Fatalf("UnitFloat(Mix64(%d)) = %v outside [0,1)", i, u)
		}
	}
	if telemetry.UnitFloat(0) != 0 || telemetry.UnitFloat(^uint64(0)) >= 1 {
		t.Fatal("UnitFloat endpoints outside [0,1)")
	}
}

func TestCorrIDDeterministicAndNonZero(t *testing.T) {
	seen := make(map[uint64][3]any)
	for seed := int64(0); seed < 20; seed++ {
		for attempt := 1; attempt <= 4; attempt++ {
			for _, name := range []string{
				"1.0.0.10.in-addr.arpa.",
				"2.0.0.10.in-addr.arpa.",
				"brian-laptop.example.net.",
			} {
				id := telemetry.CorrID(seed, name, attempt)
				if id == 0 {
					t.Fatalf("CorrID(%d,%q,%d) = 0; zero is reserved", seed, name, attempt)
				}
				if id != telemetry.CorrID(seed, name, attempt) {
					t.Fatalf("CorrID(%d,%q,%d) not stable", seed, name, attempt)
				}
				if prev, dup := seen[id]; dup {
					t.Fatalf("CorrID collision: (%d,%q,%d) and %v both map to %016x",
						seed, name, attempt, prev, id)
				}
				seen[id] = [3]any{seed, name, attempt}
			}
		}
	}
	if telemetry.CorrID(1, "a.example.", 1) == telemetry.CorrID(1, "a.example.", 2) {
		t.Fatal("different attempts must get different correlation IDs")
	}
}

func TestStartSpanCorrIDStability(t *testing.T) {
	tr := telemetry.NewTracer(42, 16)

	// Corr == 0 must derive exactly the same span ID as plain StartSpan, so
	// adding correlation support cannot perturb pre-existing trace digests.
	plain := tr.StartSpan("shard", "10.0.0.0/16", 7)
	zero := tr.StartSpanCorr("shard", "10.0.0.0/16", 0, 7)
	if plain.ID != zero.ID {
		t.Fatalf("StartSpanCorr with corr=0 changed the span ID: %016x vs %016x", plain.ID, zero.ID)
	}

	corr := telemetry.CorrID(42, "1.0.0.10.in-addr.arpa.", 1)
	a := tr.StartSpanCorr("attempt", "", corr)
	b := tr.StartSpanCorr("attempt", "", corr)
	if a.ID != b.ID || a.Corr != corr {
		t.Fatalf("correlated span not deterministic: %016x/%016x corr=%016x", a.ID, b.ID, a.Corr)
	}
	if a.ID == plain.ID {
		t.Fatal("correlated span must not collide with uncorrelated span ID")
	}
}

func TestSpanCorrJSONLRoundTrip(t *testing.T) {
	tr := telemetry.NewTracer(9, 16)
	corr := telemetry.CorrID(9, "3.0.0.10.in-addr.arpa.", 2)

	sp := tr.StartSpanCorr("attempt", "3.0.0.10.in-addr.arpa.", corr)
	sp.Event("tx", 1)
	sp.End()
	un := tr.StartSpan("shard", "10.0.0.0/16", 3)
	un.End()

	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := telemetry.ReadSpans(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if got := recs[0].CorrID(); got != corr {
		t.Errorf("correlated record round-trip: got %016x, want %016x", got, corr)
	}
	if recs[1].Corr != "" || recs[1].CorrID() != 0 {
		t.Errorf("uncorrelated record must omit corr, got %q", recs[1].Corr)
	}
}

func TestCorrHexIsSixteenPaddedDigits(t *testing.T) {
	for _, id := range []uint64{0, 1, 0xff, 0x6a38418e52828837, 1 << 63, ^uint64(0), telemetry.CorrID(7, "rdnsd.at", 3)} {
		if got, want := telemetry.CorrHex(id), fmt.Sprintf("%016x", id); got != want {
			t.Errorf("CorrHex(%#x) = %q, want %q", id, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = telemetry.CorrHex(0x6a38418e52828837) }); n > 1 {
		t.Errorf("CorrHex allocates %v times, want at most the string", n)
	}
}
