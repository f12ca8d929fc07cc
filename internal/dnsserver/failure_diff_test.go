package dnsserver

import (
	"testing"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/faultsim"
	"rdnsprivacy/internal/testutil"
)

// TestInjectorIsTheShippedFaultModel is the differential test for the
// server's one fault hook: for every pairing of the rates the study and
// the tests use, over more than 10k (name, attempt) queries, a server
// consulting an injector with one profile over every address gives the
// verdict the server shipped with (testutil.ShippedFailureDecision) — so
// moving the server onto the injector moved no seeded report. The names
// include zone apexes, which encode no address: the /0 profile governs
// them too.
func TestInjectorIsTheShippedFaultModel(t *testing.T) {
	rates := []float64{0, 0.003, 0.005, 0.5, 1}
	const names, attempts, seed = 700, 3, 42
	qnames := make([]dnswire.Name, names)
	for i := range qnames {
		qnames[i] = dnswire.ReverseName(dnswire.IPv4{10, byte(i >> 8), byte(i), byte(7 * i)})
	}
	apex, err := dnswire.ReverseZoneFor24(dnswire.MustPrefix("10.77.0.0/24"))
	if err != nil {
		t.Fatal(err)
	}
	qnames[0], qnames[1] = apex, dnswire.MustName("77.10.in-addr.arpa")
	draws, faults := 0, 0
	for _, dropRate := range rates {
		for _, servFailRate := range rates {
			srv, _ := failureTestServer(t)
			srv.SetInjector(faultsim.New(nil, seed, faultsim.Profile{Loss: dropRate, ServFailRate: servFailRate}))
			for n := uint64(0); n < attempts; n++ {
				for i, name := range qnames {
					wantDrop, wantServFail := testutil.ShippedFailureDecision(seed, dropRate, servFailRate, name, n)
					// The server's injector counts attempts per name itself.
					dropped, rcode := askName(t, srv, name, uint16(i))
					if dropped != wantDrop || (rcode == dnswire.RCodeServFail) != wantServFail {
						t.Fatalf("rates %v/%v, %s attempt %d: server dropped=%v rcode=%v, shipped drop=%v servfail=%v",
							dropRate, servFailRate, name, n, dropped, rcode, wantDrop, wantServFail)
					}
					draws++
					if wantDrop || wantServFail {
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
