// Package privleak implements the Section 5 pipeline that identifies
// networks leaking privacy-sensitive client identifiers through reverse
// DNS:
//
//  1. Start from the set of /24s showing dynamic behaviour (Section 4).
//  2. Exclude rDNS entries with generic router-level terms.
//  3. Match the remaining PTR records against a list of given names.
//  4. Extract hostname suffixes and compute, per suffix: the number of
//     records, the number of uniquely matched given names, and their ratio.
//  5. Select suffixes with at least MinUniqueNames unique matches and a
//     ratio of at least MinRatio — the unique-name threshold is what
//     disambiguates city-named routers (one repeated "jackson") from
//     genuine client populations (dozens of distinct names).
//
// It also computes the Figure 2 (given-name occurrences before and after
// filtering), Figure 3 (device-term co-occurrence) and Figure 4 (network
// type breakdown) data.
package privleak

import (
	"sort"
	"strings"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/names"
	"rdnsprivacy/internal/netsim"
)

// Config holds the Section 5 thresholds.
type Config struct {
	// MinUniqueNames is the minimum number of distinct given names a
	// suffix must match (paper: 50 at full Internet scale).
	MinUniqueNames int
	// MinRatio is the minimum unique-names-to-records ratio (paper:
	// 0.1).
	MinRatio float64
	// GivenNames is the matching list (paper: top-50 US newborn names
	// 2000-2020).
	GivenNames []string
}

// ScaledConfig returns the paper's thresholds (50 unique names, ratio 0.1,
// for full-scale data) adjusted for the 1/100-scale universe:
// populations are 100x smaller, so the unique-name floor shrinks
// proportionally in spirit (not strictly linearly — name collisions do not
// scale linearly; 18 distinct top-50 names in a small network is already
// far beyond what router-level city names produce).
func ScaledConfig() Config {
	return Config{MinUniqueNames: 18, MinRatio: 0.03, GivenNames: names.Top50}
}

// RecordObservation is one input record: a PTR hostname and whether it
// belongs to a dynamic /24.
type RecordObservation struct {
	IP       dnswire.IPv4
	HostName dnswire.Name
	Dynamic  bool
}

// SuffixReport is the per-suffix aggregation of step 4.
type SuffixReport struct {
	// Suffix is the hostname suffix (TLD+1).
	Suffix string
	// Records is the number of (dynamic, non-generic) records under the
	// suffix.
	Records int
	// UniqueNames is the number of distinct given names matched.
	UniqueNames int
	// NameCounts counts records per matched given name.
	NameCounts map[string]int
	// DeviceTermCounts counts records per co-appearing device term.
	DeviceTermCounts map[string]int
	// Identified reports whether the suffix met the thresholds.
	Identified bool
	// Type is the inferred network type.
	Type netsim.NetworkType
}

// Ratio returns unique names over records.
func (s *SuffixReport) Ratio() float64 {
	if s.Records == 0 {
		return 0
	}
	return float64(s.UniqueNames) / float64(s.Records)
}

// Result is the pipeline output.
type Result struct {
	Config Config
	// AllNameMatches counts, per given name, every matching record
	// (Figure 2, "All matches").
	AllNameMatches map[string]int
	// FilteredNameMatches counts matches within identified networks
	// only (Figure 2, "Filtered matches").
	FilteredNameMatches map[string]int
	// AllDeviceTerms and FilteredDeviceTerms are the Figure 3
	// equivalents for device terms.
	AllDeviceTerms      map[string]int
	FilteredDeviceTerms map[string]int
	// Suffixes holds every suffix seen in dynamic space with at least
	// one name match.
	Suffixes map[string]*SuffixReport
	// Identified lists the suffixes that met the thresholds, sorted by
	// descending unique names.
	Identified []*SuffixReport
}

// TypeBreakdown counts identified networks per type (Figure 4).
func (r *Result) TypeBreakdown() map[netsim.NetworkType]int {
	out := make(map[netsim.NetworkType]int)
	for _, s := range r.Identified {
		out[s.Type]++
	}
	return out
}

// Analyzer runs the pipeline incrementally so record sets never need to be
// materialized in memory.
type Analyzer struct {
	cfg     Config
	matcher *names.Matcher
	res     *Result
}

// NewAnalyzer creates an analyzer with the given thresholds.
func NewAnalyzer(cfg Config) *Analyzer {
	if len(cfg.GivenNames) == 0 {
		cfg.GivenNames = names.Top50
	}
	return &Analyzer{
		cfg:     cfg,
		matcher: names.NewMatcher(cfg.GivenNames),
		res: &Result{
			Config:              cfg,
			AllNameMatches:      make(map[string]int),
			FilteredNameMatches: make(map[string]int),
			AllDeviceTerms:      make(map[string]int),
			FilteredDeviceTerms: make(map[string]int),
			Suffixes:            make(map[string]*SuffixReport),
		},
	}
}

// Observe feeds one record into the pipeline.
func (a *Analyzer) Observe(obs RecordObservation) {
	host := string(obs.HostName)
	matched := a.matcher.Match(host)
	terms := names.DeviceTermsIn(host)

	// Figure 2/3 "All matches": any matching PTR record, dynamic or not.
	for _, n := range matched {
		a.res.AllNameMatches[n]++
	}
	if len(matched) > 0 {
		for _, t := range terms {
			a.res.AllDeviceTerms[t]++
		}
	}

	// The identification pipeline proper considers only dynamic /24s
	// (step 1) and excludes router-level records (step 2).
	if !obs.Dynamic || names.HasGenericTerm(host) {
		return
	}
	if len(matched) == 0 {
		return
	}
	suffix := ExtractSuffix(obs.HostName)
	rep, ok := a.res.Suffixes[suffix]
	if !ok {
		rep = &SuffixReport{
			Suffix:           suffix,
			NameCounts:       make(map[string]int),
			DeviceTermCounts: make(map[string]int),
		}
		a.res.Suffixes[suffix] = rep
	}
	rep.Records++
	for _, n := range matched {
		rep.NameCounts[n]++
	}
	for _, t := range terms {
		rep.DeviceTermCounts[t]++
	}
}

// Finish applies the thresholds and computes the filtered views. It must be
// called exactly once, after all records are observed.
func (a *Analyzer) Finish() *Result {
	for _, rep := range a.res.Suffixes {
		rep.UniqueNames = len(rep.NameCounts)
		rep.Type = ClassifySuffix(rep.Suffix)
		if rep.UniqueNames >= a.cfg.MinUniqueNames && rep.Ratio() >= a.cfg.MinRatio {
			rep.Identified = true
			a.res.Identified = append(a.res.Identified, rep)
			for n, c := range rep.NameCounts {
				a.res.FilteredNameMatches[n] += c
			}
			for t, c := range rep.DeviceTermCounts {
				a.res.FilteredDeviceTerms[t] += c
			}
		}
	}
	sort.Slice(a.res.Identified, func(i, j int) bool {
		si, sj := a.res.Identified[i], a.res.Identified[j]
		if si.UniqueNames != sj.UniqueNames {
			return si.UniqueNames > sj.UniqueNames
		}
		return si.Suffix < sj.Suffix
	})
	return a.res
}

// publicSuffixes lists multi-label public suffixes under which one more
// label is needed to form a registrable domain; everything else uses the
// last label as TLD.
var publicSuffixes = map[string]bool{
	"ac.nl": true, "ac.uk": true, "ac.jp": true, "ac.kr": true,
	"edu.au": true, "edu.cn": true, "co.uk": true, "co.jp": true,
	"com.au": true, "com.br": true, "gov.uk": true,
}

// ExtractSuffix returns the TLD+1 of a hostname (one extra label under a
// known multi-label public suffix), the index key of Section 5.2.
func ExtractSuffix(n dnswire.Name) string {
	labels := n.Labels()
	if len(labels) < 2 {
		return strings.TrimSuffix(string(n), ".")
	}
	last2 := labels[len(labels)-2] + "." + labels[len(labels)-1]
	if publicSuffixes[last2] && len(labels) >= 3 {
		return labels[len(labels)-3] + "." + last2
	}
	return last2
}

// ClassifySuffix infers the network type from a hostname suffix, as
// Section 5.2 does: .edu and .ac.* indicate academic use, .gov government;
// ISP and enterprise need inspection, modelled here by keyword heuristics;
// the remainder is other.
func ClassifySuffix(suffix string) netsim.NetworkType {
	s := strings.ToLower(suffix)
	switch {
	case strings.HasSuffix(s, ".edu"), strings.Contains(s, ".ac."),
		strings.HasSuffix(s, ".ac.nl"), strings.HasSuffix(s, ".ac.uk"):
		return netsim.Academic
	case strings.HasSuffix(s, ".gov"):
		return netsim.Government
	}
	ispWords := []string{"isp", "telecom", "broadband", "dsl", "cable", "fiber", "net"}
	for _, w := range ispWords {
		if strings.Contains(s, w) {
			return netsim.ISP
		}
	}
	if strings.HasSuffix(s, ".com") {
		return netsim.Enterprise
	}
	return netsim.Other
}
