package dnsserver

import (
	"testing"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/faultsim"
)

// shippedFailureDecision is FailureMode's per-query draw as it was written
// before the server took it from faultsim: splitmix64 over (seed,
// FNV-1a(name), n) against DropRate, re-mixed with 0x5EC0 against
// ServFailRate. docs/report-*-scale.txt and the seeded digests were
// generated with these verdicts; this copy is the fixed point the
// differential test below holds the shared fault model to.
func shippedFailureDecision(fm FailureMode, name dnswire.Name, n uint64) (drop, servFail bool) {
	mix := func(words ...uint64) uint64 {
		h := uint64(0x9E3779B97F4A7C15)
		for _, w := range words {
			h ^= w
			h *= 0xBF58476D1CE4E5B9
			h ^= h >> 27
			h *= 0x94D049BB133111EB
			h ^= h >> 31
		}
		return h
	}
	unit := func(h uint64) float64 { return float64(h>>11) / float64(1<<53) }
	nameHash := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		nameHash ^= uint64(name[i])
		nameHash *= 1099511628211
	}
	h := mix(uint64(fm.Seed), nameHash, n)
	if fm.DropRate > 0 && unit(h) < fm.DropRate {
		return true, false
	}
	h = mix(h, 0x5EC0)
	if fm.ServFailRate > 0 && unit(h) < fm.ServFailRate {
		return false, true
	}
	return false, false
}

// TestFailureModeIsTheSharedFaultModel is the differential test for
// running FailureMode on faultsim's draw: for every pairing of the rates
// the study and the tests use, over more than 10k (name, attempt) draws,
// the installed failure state, faultsim.Profile.Sample and the decision
// as shipped give the same verdict — so moving the server onto the shared
// model moved no seeded report.
func TestFailureModeIsTheSharedFaultModel(t *testing.T) {
	rates := []float64{0, 0.003, 0.005, 0.5, 1}
	const names, attempts = 700, 3
	draws, faults := 0, 0
	for _, dropRate := range rates {
		for _, servFailRate := range rates {
			fm := FailureMode{DropRate: dropRate, ServFailRate: servFailRate, Seed: 42}
			fs := &failureState{mode: fm, seq: make(map[dnswire.Name]uint64)}
			profile := faultsim.Profile{Loss: dropRate, ServFailRate: servFailRate}
			for n := uint64(0); n < attempts; n++ {
				for i := 0; i < names; i++ {
					name := dnswire.ReverseName(dnswire.IPv4{10, byte(i >> 8), byte(i), byte(7 * i)})
					wantDrop, wantServFail := shippedFailureDecision(fm, name, n)
					want := faultsim.OutcomePass
					switch {
					case wantDrop:
						want = faultsim.OutcomeDrop
					case wantServFail:
						want = faultsim.OutcomeServFail
					}
					if got := profile.Sample(fm.Seed, name, n); got != want {
						t.Fatalf("rates %v/%v, %s attempt %d: faultsim draws %v, FailureMode shipped %v",
							dropRate, servFailRate, name, n, got, want)
					}
					// The installed state counts attempts per name itself.
					if drop, servFail := fs.decide(name); drop != wantDrop || servFail != wantServFail {
						t.Fatalf("rates %v/%v, %s attempt %d: server decides drop=%v servfail=%v, shipped %v/%v",
							dropRate, servFailRate, name, n, drop, servFail, wantDrop, wantServFail)
					}
					draws++
					if want != faultsim.OutcomePass {
						faults++
					}
				}
			}
		}
	}
	if draws < 10000 || faults == 0 || faults == draws {
		t.Fatalf("%d draws, %d faults: the comparison did not exercise both verdicts", draws, faults)
	}
	t.Logf("%d draws, %d faults", draws, faults)
}
