// Package dataset holds the measurement data model of the study: daily
// reverse-DNS observations in the shape that OpenINTEL and Rapid7 publish
// (date, IP address, PTR hostname) — the rows a history store's range
// queries return — per-/24 daily aggregates, and the summary statistics
// reported in the paper's Table 1 and Table 3.
package dataset

import (
	"fmt"
	"time"

	"rdnsprivacy/internal/dnswire"
)

// DateFormat is the on-disk date format.
const DateFormat = "2006-01-02"

// Row is one observation: on a date, this address held this PTR record.
type Row struct {
	Date time.Time
	IP   dnswire.IPv4
	PTR  dnswire.Name
}

// CountSeries is the per-/24 daily unique-address counts a longitudinal
// measurement yields — the input of the Section 4 dynamicity analysis.
type CountSeries struct {
	// Dates lists the measurement days in order.
	Dates []time.Time
	// Counts maps each /24 to its per-day unique-address count, aligned
	// with Dates. Prefixes absent from the map were never seen.
	Counts map[dnswire.Prefix][]int
}

// NewCountSeries creates an empty series over the given dates.
func NewCountSeries(dates []time.Time) *CountSeries {
	return &CountSeries{
		Dates:  append([]time.Time(nil), dates...),
		Counts: make(map[dnswire.Prefix][]int),
	}
}

// Add increments the count for a prefix on day index i.
func (s *CountSeries) Add(p dnswire.Prefix, i, delta int) {
	row, ok := s.Counts[p]
	if !ok {
		row = make([]int, len(s.Dates))
		s.Counts[p] = row
	}
	row[i] += delta
}

// SetConstant records the same count for a prefix on every day.
func (s *CountSeries) SetConstant(p dnswire.Prefix, count int) {
	row := make([]int, len(s.Dates))
	for i := range row {
		row[i] = count
	}
	s.Counts[p] = row
}

// Cut returns the series on a subset of its dates, keeping only the /24s
// with a count on one of them, so that absent still means never seen. A
// date the series does not cover reads as zero.
func (s *CountSeries) Cut(dates []time.Time) *CountSeries {
	index := make(map[int64]int, len(s.Dates))
	for i, d := range s.Dates {
		index[d.Unix()] = i
	}
	cols := make([]int, len(dates))
	for j, d := range dates {
		i, ok := index[d.Unix()]
		if !ok {
			i = -1
		}
		cols[j] = i
	}
	out := NewCountSeries(dates)
	for p, row := range s.Counts {
		var cut []int
		for j, i := range cols {
			if i < 0 || row[i] == 0 {
				continue
			}
			if cut == nil {
				cut = make([]int, len(dates))
			}
			cut[j] = row[i]
		}
		if cut != nil {
			out.Counts[p] = cut
		}
	}
	return out
}

// Stats summarizes a measurement campaign the way Table 1 and Table 3 do.
type Stats struct {
	// Name labels the data set ("OpenINTEL-like daily", ...).
	Name string
	// Start and End delimit the campaign.
	Start, End time.Time
	// TotalResponses counts every successful observation.
	TotalResponses uint64
	// UniqueIPs counts distinct addresses observed.
	UniqueIPs uint64
	// UniquePTRs counts distinct PTR hostnames observed.
	UniquePTRs uint64
}

// String formats the stats as a table row.
func (st Stats) String() string {
	return fmt.Sprintf("%-24s %s  %s  %14d %12d %12d",
		st.Name, st.Start.Format(DateFormat), st.End.Format(DateFormat),
		st.TotalResponses, st.UniqueIPs, st.UniquePTRs)
}

// StatsCollector accumulates Stats incrementally without storing rows. It
// tracks uniqueness with 64-bit hash sets, which is exact for all practical
// purposes at this scale.
type StatsCollector struct {
	stats     Stats
	seenIPs   map[uint32]struct{}
	seenPTRs  map[uint64]struct{}
	startSeen bool
}

// NewStatsCollector creates a collector with a data set name.
func NewStatsCollector(name string) *StatsCollector {
	return &StatsCollector{
		stats:    Stats{Name: name},
		seenIPs:  make(map[uint32]struct{}),
		seenPTRs: make(map[uint64]struct{}),
	}
}

// Observe records one (date, ip, ptr) observation.
func (c *StatsCollector) Observe(date time.Time, ip dnswire.IPv4, ptr dnswire.Name) {
	c.ObserveDay(date, 1)
	c.See(ip, ptr)
}

// ObserveDay counts n observations made on date without adding to the
// distinct sets. A campaign day whose records mostly repeat the day
// before's passes only what changed to See.
func (c *StatsCollector) ObserveDay(date time.Time, n uint64) {
	if n == 0 {
		return
	}
	if !c.startSeen || date.Before(c.stats.Start) {
		c.stats.Start = date
		c.startSeen = true
	}
	if date.After(c.stats.End) {
		c.stats.End = date
	}
	c.stats.TotalResponses += n
}

// See adds an address and a name to the distinct sets without counting an
// observation.
func (c *StatsCollector) See(ip dnswire.IPv4, ptr dnswire.Name) {
	c.seenIPs[ip.Uint32()] = struct{}{}
	c.seenPTRs[hashName(ptr)] = struct{}{}
}

// ObserveRepeat records the same observation on n further dates without
// re-hashing (used for constant filler blocks across a campaign).
func (c *StatsCollector) ObserveRepeat(n uint64) {
	c.stats.TotalResponses += n
}

// Stats returns the accumulated summary.
func (c *StatsCollector) Stats() Stats {
	st := c.stats
	st.UniqueIPs = uint64(len(c.seenIPs))
	st.UniquePTRs = uint64(len(c.seenPTRs))
	return st
}

// hashName hashes a name with FNV-1a.
func hashName(n dnswire.Name) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(n); i++ {
		h ^= uint64(n[i])
		h *= prime
	}
	return h
}

// DateRange enumerates the days in [start, end] at a step of interval days.
func DateRange(start, end time.Time, intervalDays int) []time.Time {
	if intervalDays <= 0 {
		intervalDays = 1
	}
	var out []time.Time
	for d := start; !d.After(end); d = d.AddDate(0, 0, intervalDays) {
		out = append(out, d)
	}
	return out
}
