package testutil

import (
	"testing"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/faultsim"
)

// TestShippedFailureDecisionIsFaultsimSample holds the shared fault model
// to the reference: for every pairing of the rates the study and the tests
// use, over more than 10k (name, attempt) draws, faultsim.Profile.Sample
// gives the verdict the name servers shipped with.
func TestShippedFailureDecisionIsFaultsimSample(t *testing.T) {
	rates := []float64{0, 0.003, 0.005, 0.5, 1}
	const names, attempts, seed = 700, 3, 42
	draws, faults := 0, 0
	for _, dropRate := range rates {
		for _, servFailRate := range rates {
			profile := faultsim.Profile{Loss: dropRate, ServFailRate: servFailRate}
			for n := uint64(0); n < attempts; n++ {
				for i := 0; i < names; i++ {
					name := dnswire.ReverseName(dnswire.IPv4{10, byte(i >> 8), byte(i), byte(7 * i)})
					want := faultsim.OutcomePass
					switch drop, servFail := ShippedFailureDecision(seed, dropRate, servFailRate, name, n); {
					case drop:
						want = faultsim.OutcomeDrop
					case servFail:
						want = faultsim.OutcomeServFail
					}
					if got := profile.Sample(seed, name, n); got != want {
						t.Fatalf("rates %v/%v, %s attempt %d: faultsim draws %v, the servers shipped %v",
							dropRate, servFailRate, name, n, got, want)
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
}
