package privleak

import (
	"context"
	"fmt"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/dynamicity"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/scan"
)

func obs(host string, dynamic bool) RecordObservation {
	return RecordObservation{
		IP:       dnswire.MustIPv4("10.0.0.1"),
		HostName: dnswire.MustName(host),
		Dynamic:  dynamic,
	}
}

func TestExtractSuffix(t *testing.T) {
	tests := []struct{ in, want string }{
		{"brians-iphone.dyn.campus-a.edu.", "campus-a.edu"},
		{"host.students.campus-c.ac.nl.", "campus-c.ac.nl"},
		{"client1.someisp.com.", "someisp.com"},
		{"x.y.z.co.uk.", "z.co.uk"},
		{"example.com.", "example.com"},
		{"com.", "com"},
	}
	for _, tc := range tests {
		if got := ExtractSuffix(dnswire.MustName(tc.in)); got != tc.want {
			t.Errorf("ExtractSuffix(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestClassifySuffix(t *testing.T) {
	tests := []struct {
		in   string
		want netsim.NetworkType
	}{
		{"campus-a.edu", netsim.Academic},
		{"campus-c.ac.nl", netsim.Academic},
		{"agency-1.gov", netsim.Government},
		{"telecom-5.net", netsim.ISP},
		{"corp-a.com", netsim.Enterprise},
		{"org-9.org", netsim.Other},
	}
	for _, tc := range tests {
		if got := ClassifySuffix(tc.in); got != tc.want {
			t.Errorf("ClassifySuffix(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestPipelineIdentifiesLeakySuffix(t *testing.T) {
	cfg := Config{MinUniqueNames: 3, MinRatio: 0.05}
	a := NewAnalyzer(cfg)
	// A leaking network: distinct given names on a dynamic prefix.
	for i, name := range []string{"jacob", "emma", "olivia", "noah"} {
		a.Observe(obs(fmt.Sprintf("%ss-iphone.dyn.leaky.edu.", name), true))
		a.Observe(obs(fmt.Sprintf("%s-laptop.dyn.leaky.edu.", name), true))
		_ = i
	}
	// Router records with a city name: one repeated name, many records.
	for i := 0; i < 50; i++ {
		a.Observe(obs(fmt.Sprintf("ge-0-%d.core1.jackson.transit.net.", i), true))
	}
	res := a.Finish()
	if len(res.Identified) != 1 {
		t.Fatalf("identified = %d suffixes", len(res.Identified))
	}
	if res.Identified[0].Suffix != "leaky.edu" {
		t.Fatalf("identified %q", res.Identified[0].Suffix)
	}
	if res.Identified[0].UniqueNames != 4 {
		t.Fatalf("unique names = %d", res.Identified[0].UniqueNames)
	}
}

func TestGenericTermsExcluded(t *testing.T) {
	a := NewAnalyzer(Config{MinUniqueNames: 1, MinRatio: 0})
	// "jackson" appears in a router-level record: counted in the
	// unfiltered view, but excluded from suffix aggregation by the
	// generic term "core".
	a.Observe(obs("core1.jackson.someisp.net.", true))
	res := a.Finish()
	if res.AllNameMatches["jackson"] != 1 {
		t.Fatalf("all matches = %v", res.AllNameMatches)
	}
	if len(res.Suffixes) != 0 {
		t.Fatalf("suffixes = %v; router record must be excluded", res.Suffixes)
	}
}

func TestNonDynamicExcludedFromPipelineButCountedInAll(t *testing.T) {
	a := NewAnalyzer(Config{MinUniqueNames: 1, MinRatio: 0})
	a.Observe(obs("brian.home.hosting-1.com.", false))
	res := a.Finish()
	if res.AllNameMatches["brian"] != 0 {
		// brian is not in the default Top50 matcher.
		t.Fatalf("brian matched by top-50 matcher: %v", res.AllNameMatches)
	}
	a2 := NewAnalyzer(Config{MinUniqueNames: 1, MinRatio: 0, GivenNames: []string{"brian"}})
	a2.Observe(obs("brian.home.hosting-1.com.", false))
	res2 := a2.Finish()
	if res2.AllNameMatches["brian"] != 1 {
		t.Fatalf("all matches = %v", res2.AllNameMatches)
	}
	if len(res2.Suffixes) != 0 {
		t.Fatal("non-dynamic record entered the pipeline")
	}
}

func TestRatioThresholdRejectsCityRouters(t *testing.T) {
	// Many records, few unique names, no generic terms: rejected by the
	// unique-name and ratio thresholds (the Jacksonville disambiguation).
	cfg := Config{MinUniqueNames: 5, MinRatio: 0.1}
	a := NewAnalyzer(cfg)
	for i := 0; i < 200; i++ {
		a.Observe(obs(fmt.Sprintf("pop%d.jackson.bigtransit.net.", i), true))
	}
	res := a.Finish()
	if len(res.Identified) != 0 {
		t.Fatalf("city-router suffix identified: %+v", res.Identified[0])
	}
	// The suffix is still tracked, just not identified.
	rep := res.Suffixes["bigtransit.net"]
	if rep == nil || rep.UniqueNames != 1 {
		t.Fatalf("suffix report = %+v", rep)
	}
}

func TestDeviceTermCoAppearance(t *testing.T) {
	a := NewAnalyzer(Config{MinUniqueNames: 2, MinRatio: 0})
	a.Observe(obs("jacobs-iphone.dyn.leaky.edu.", true))
	a.Observe(obs("emmas-galaxy-note9.dyn.leaky.edu.", true))
	a.Observe(obs("emmas-macbook-air.dyn.leaky.edu.", true))
	res := a.Finish()
	if res.AllDeviceTerms["iphone"] != 1 || res.AllDeviceTerms["galaxy"] != 1 {
		t.Fatalf("all terms = %v", res.AllDeviceTerms)
	}
	if res.FilteredDeviceTerms["macbook"] != 1 || res.FilteredDeviceTerms["air"] != 1 {
		t.Fatalf("filtered terms = %v", res.FilteredDeviceTerms)
	}
}

func TestEndToEndOnUniverse(t *testing.T) {
	// Full Section 4 + Section 5 pipeline on a reduced universe: the
	// CarryOver networks must be identified; hashed and filler must not.
	u, err := netsim.BuildStudyUniverse(netsim.UniverseConfig{
		Seed:                  21,
		FillerSlash24s:        700,
		LeakyNetworks:         16,
		NonLeakyDynamic:       5,
		PeoplePerDynamicBlock: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2021, 1, 4, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(0, 0, 41) // six weeks
	counts := scan.Run(scan.Campaign{Universe: u, Start: start, End: end, Cadence: scan.Daily})
	dyn := dynamicity.Analyze(counts.Series, dynamicity.PaperConfig())
	if len(dyn.DynamicPrefixes) == 0 {
		t.Fatal("no dynamic prefixes found")
	}
	dynSet := make(map[dnswire.Prefix]bool)
	for _, p := range dyn.DynamicPrefixes {
		dynSet[p] = true
	}

	a := NewAnalyzer(ScaledConfig())
	// Union of one week of snapshots.
	seen := make(map[string]bool)
	for d := 0; d < 7; d++ {
		snap, err := scan.Snapshot(context.Background(), scan.Campaign{Universe: u}, start.AddDate(0, 0, d).Add(13*time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		for ip, name := range snap.Records {
			key := ip.String() + "|" + string(name)
			if seen[key] {
				continue
			}
			seen[key] = true
			a.Observe(RecordObservation{IP: ip, HostName: name, Dynamic: dynSet[ip.Slash24()]})
		}
	}
	res := a.Finish()
	if len(res.Identified) == 0 {
		t.Fatal("no networks identified")
	}
	identifiedSet := make(map[string]bool)
	for _, s := range res.Identified {
		identifiedSet[s.Suffix] = true
	}
	// The big campuses must be identified.
	for _, want := range []string{"campus-a.edu", "campus-c.ac.nl"} {
		if !identifiedSet[want] {
			t.Errorf("%s not identified (have %v)", want, identifiedSet)
		}
	}
	// Hashed networks and filler must not.
	for s := range identifiedSet {
		if len(s) >= 4 && s[:4] == "cdn-" {
			t.Errorf("hashed network %s identified", s)
		}
		if len(s) >= 8 && s[:8] == "hosting-" {
			t.Errorf("static filler %s identified", s)
		}
	}
	// Figure 2 property: unfiltered matches exceed filtered matches.
	allTotal, filtTotal := 0, 0
	for _, c := range res.AllNameMatches {
		allTotal += c
	}
	for _, c := range res.FilteredNameMatches {
		filtTotal += c
	}
	if allTotal <= filtTotal {
		t.Fatalf("all=%d filtered=%d; filtering must reduce matches", allTotal, filtTotal)
	}
	// Figure 4 property: types present, academic leads.
	breakdown := res.TypeBreakdown()
	if breakdown[netsim.Academic] == 0 {
		t.Fatalf("no academic networks in breakdown: %v", breakdown)
	}
}
