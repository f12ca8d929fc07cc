package netsim

import (
	"strings"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
)

// smallUniverse builds a reduced universe for tests.
func smallUniverse(t *testing.T) *Universe {
	t.Helper()
	u, err := BuildStudyUniverse(UniverseConfig{
		Seed:                  42,
		FillerSlash24s:        600,
		LeakyNetworks:         24,
		NonLeakyDynamic:       6,
		PeoplePerDynamicBlock: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestUniverseContainsNineSupplementalNetworks(t *testing.T) {
	u := smallUniverse(t)
	for _, name := range SupplementalNames() {
		n, ok := u.NetworkByName(name)
		if !ok {
			t.Fatalf("missing supplemental network %s", name)
		}
		if n.Name() != name {
			t.Fatalf("network name mismatch: %s", n.Name())
		}
	}
}

func TestSupplementalICMPProperties(t *testing.T) {
	u := smallUniverse(t)
	blocked := map[string]bool{
		"Academic-B": true, "Enterprise-B": true, "Enterprise-C": true,
	}
	for _, name := range SupplementalNames() {
		n, _ := u.NetworkByName(name)
		if got := n.Config().BlockICMP; got != blocked[name] {
			t.Errorf("%s BlockICMP = %v, want %v", name, got, blocked[name])
		}
	}
}

func TestUniverseNoAddressOverlap(t *testing.T) {
	u := smallUniverse(t)
	var prefixes []dnswire.Prefix
	for _, n := range u.Networks {
		prefixes = append(prefixes, n.Config().Announced)
	}
	for _, f := range u.Filler {
		prefixes = append(prefixes, f.Prefix)
	}
	for i := 0; i < len(prefixes); i++ {
		for j := i + 1; j < len(prefixes); j++ {
			if prefixes[i].Overlaps(prefixes[j]) {
				t.Fatalf("prefixes %v and %v overlap", prefixes[i], prefixes[j])
			}
		}
	}
}

func TestUniverseTypeMix(t *testing.T) {
	u, err := BuildStudyUniverse(UniverseConfig{
		Seed:                  1,
		FillerSlash24s:        1,
		LeakyNetworks:         100,
		NonLeakyDynamic:       1,
		PeoplePerDynamicBlock: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[NetworkType]int{}
	leaky := 0
	for _, n := range u.Networks {
		if strings.HasPrefix(n.Name(), "hashed-") {
			continue
		}
		counts[n.Config().Type]++
		leaky++
	}
	if leaky < 95 || leaky > 105 {
		t.Fatalf("leaky networks = %d, want ~100", leaky)
	}
	// Expect roughly the Figure 4 mix.
	if counts[Academic] < 55 || counts[Academic] > 70 {
		t.Fatalf("academic = %d, want ~62", counts[Academic])
	}
	if counts[ISP] < 10 || counts[ISP] > 20 {
		t.Fatalf("isp = %d, want ~15", counts[ISP])
	}
	if counts[Government] < 2 || counts[Government] > 5 {
		t.Fatalf("government = %d, want ~3", counts[Government])
	}
}

func TestFillerRecordsDeterministicAndCounted(t *testing.T) {
	u := smallUniverse(t)
	if len(u.Filler) == 0 {
		t.Fatal("no filler blocks")
	}
	f := u.Filler[0]
	var a, b []Record
	f.Records(func(r Record) { a = append(a, r) })
	f.Records(func(r Record) { b = append(b, r) })
	if len(a) != len(b) || len(a) != f.Count() {
		t.Fatalf("filler generation unstable: %d vs %d vs Count %d", len(a), len(b), f.Count())
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	for _, r := range a {
		if !f.Prefix.Contains(r.IP) {
			t.Fatalf("record %v outside filler prefix %v", r.IP, f.Prefix)
		}
	}
}

func TestFillerVanityContainsGivenNames(t *testing.T) {
	u := smallUniverse(t)
	sawName := false
	for _, f := range u.Filler {
		if f.Kind != FillerVanity {
			continue
		}
		f.Records(func(r Record) {
			if strings.Contains(string(r.HostName), ".home.") {
				sawName = true
			}
		})
		if sawName {
			break
		}
	}
	if !sawName {
		t.Fatal("no vanity given-name records in filler")
	}
}

func TestPlantedBrians(t *testing.T) {
	u := smallUniverse(t)
	n, _ := u.NetworkByName("Academic-A")
	loc := time.UTC

	// A regular Tuesday evening in November 2021: several Brian devices.
	at := time.Date(2021, 11, 9, 20, 0, 0, 0, loc)
	brianHosts := func(at time.Time) map[string]bool {
		hosts := map[string]bool{}
		n.RecordsAt(at, func(r Record) {
			h := string(r.HostName)
			if strings.HasPrefix(h, "brians-") || strings.HasPrefix(h, "brian-") {
				hosts[strings.SplitN(h, ".", 2)[0]] = true
			}
		})
		return hosts
	}
	evening := brianHosts(at)
	for _, want := range []string{"brians-air", "brians-ipad", "brians-phone"} {
		if !evening[want] {
			t.Errorf("missing %s on a regular evening (have %v)", want, evening)
		}
	}
	if evening["brians-galaxy-note9"] {
		t.Error("galaxy-note9 present before Cyber Monday")
	}

	// Thanksgiving Friday evening: air and phone are away, iPad remains.
	tg := time.Date(2021, 11, 26, 20, 0, 0, 0, loc)
	tgHosts := brianHosts(tg)
	if tgHosts["brians-air"] || tgHosts["brians-phone"] {
		t.Errorf("travelling devices present on Thanksgiving weekend: %v", tgHosts)
	}
	if !tgHosts["brians-ipad"] {
		t.Error("iPad (left behind) missing on Thanksgiving weekend")
	}

	// Cyber Monday evening: the Galaxy Note 9 appears.
	cm := time.Date(2021, 11, 29, 20, 0, 0, 0, loc)
	cmHosts := brianHosts(cm)
	if !cmHosts["brians-galaxy-note9"] {
		t.Errorf("galaxy-note9 missing on Cyber Monday evening: %v", cmHosts)
	}
}

func TestEducationHousingSplit(t *testing.T) {
	u := smallUniverse(t)
	n, _ := u.NetworkByName("Academic-C")
	edu, housing := EducationHousingSplit(n)
	if len(edu) == 0 || len(housing) == 0 {
		t.Fatalf("split: edu=%d housing=%d", len(edu), len(housing))
	}
	for _, e := range edu {
		for _, h := range housing {
			if e.Overlaps(h) {
				t.Fatalf("edu %v overlaps housing %v", e, h)
			}
		}
	}
}

func TestValidationCampusGroundTruth(t *testing.T) {
	n, truth, err := BuildValidationCampus(7, time.UTC)
	if err != nil {
		t.Fatal(err)
	}
	if len(truth["dynamic"]) != 40 {
		t.Fatalf("dynamic prefixes = %d, want 40", len(truth["dynamic"]))
	}
	if len(truth["dhcp-static"]) != 83 {
		t.Fatalf("dhcp-static prefixes = %d, want 83", len(truth["dhcp-static"]))
	}
	if len(truth["static"]) != 123 {
		t.Fatalf("static prefixes = %d, want 123", len(truth["static"]))
	}
	if len(truth["empty"]) != 10 {
		t.Fatalf("empty prefixes = %d, want 10", len(truth["empty"]))
	}
	// The dhcp-static prefixes must be fully populated with fixed names.
	counts := countRecordsAt(n, time.Date(2021, 1, 15, 13, 0, 0, 0, time.UTC))
	for _, p := range truth["dhcp-static"] {
		if counts[p] < 250 {
			t.Fatalf("dhcp-static %v has %d records, want full pool", p, counts[p])
		}
	}
	for _, p := range truth["empty"] {
		if counts[p] != 0 {
			t.Fatalf("empty prefix %v has %d records", p, counts[p])
		}
	}
}

func TestUniverseCountsVaryDayToDayOnlyInDynamicBlocks(t *testing.T) {
	u := smallUniverse(t)
	n, _ := u.NetworkByName("Academic-A")
	day1 := time.Date(2021, 2, 1, 13, 0, 0, 0, time.UTC) // Monday
	day2 := time.Date(2021, 2, 6, 13, 0, 0, 0, time.UTC) // Saturday
	c1 := countRecordsAt(n, day1)
	c2 := countRecordsAt(n, day2)
	edu, _ := EducationHousingSplit(n)
	changed := false
	for _, p := range edu {
		if c1[p] != c2[p] {
			changed = true
		}
		if c1[p] <= c2[p] {
			continue
		}
	}
	if !changed {
		t.Fatal("education blocks identical between Monday and Saturday")
	}
	// Weekday education use exceeds weekend use in aggregate.
	sum1, sum2 := 0, 0
	for _, p := range edu {
		sum1 += c1[p]
		sum2 += c2[p]
	}
	if sum1 <= sum2 {
		t.Fatalf("education weekday count %d <= weekend %d", sum1, sum2)
	}
}
