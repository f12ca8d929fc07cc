package core

import (
	"fmt"
	"io"
	"sort"
	"time"

	"rdnsprivacy/internal/analysis"
	"rdnsprivacy/internal/casestudy"
	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/dynamicity"
	"rdnsprivacy/internal/names"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/reactive"
	"rdnsprivacy/internal/scan"
	"rdnsprivacy/internal/textplot"
)

// Table1Result reproduces Table 1: statistics of the two longitudinal
// data sets.
type Table1Result struct {
	Rapid7    dataset.Stats
	OpenINTEL dataset.Stats
}

// Table1 summarizes the study's campaign over both platforms' dates.
func (s *Study) Table1() Table1Result {
	return s.campaign().table1
}

// Render writes the table.
func (r Table1Result) Render(w io.Writer) {
	textplot.Table(w, "Table 1: longitudinal data set statistics",
		[]string{"Data set", "Start", "End", "Total responses", "Unique IPs", "Unique PTRs"},
		[][]string{
			{"Rapid7-like (weekly)", r.Rapid7.Start.Format(dataset.DateFormat),
				r.Rapid7.End.Format(dataset.DateFormat),
				fmt.Sprint(r.Rapid7.TotalResponses),
				fmt.Sprint(r.Rapid7.UniqueIPs), fmt.Sprint(r.Rapid7.UniquePTRs)},
			{"OpenINTEL-like (daily)", r.OpenINTEL.Start.Format(dataset.DateFormat),
				r.OpenINTEL.End.Format(dataset.DateFormat),
				fmt.Sprint(r.OpenINTEL.TotalResponses),
				fmt.Sprint(r.OpenINTEL.UniqueIPs), fmt.Sprint(r.OpenINTEL.UniquePTRs)},
		})
	fmt.Fprintf(w, "  (paper, full scale: Rapid7 77G responses / 1,381M unique PTRs;\n"+
		"   OpenINTEL 396G responses / 1,356M unique PTRs — this run is the\n"+
		"   1/100-scale universe, see EXPERIMENTS.md)\n\n")
}

// Figure1Result reproduces Figure 1: distribution of the fraction of
// dynamic /24s per announced prefix, by announced prefix size.
type Figure1Result struct {
	TotalSlash24s   int
	DynamicSlash24s int
	Distribution    []dynamicity.FractionDistribution
}

// Figure1 maps dynamic /24s to announced prefixes and summarizes.
func (s *Study) Figure1() Figure1Result {
	dyn := s.Dynamicity()
	entries := dynamicity.MapToAnnounced(dyn, s.AnnouncedPrefixes())
	return Figure1Result{
		TotalSlash24s:   dyn.TotalPrefixes,
		DynamicSlash24s: len(dyn.DynamicPrefixes),
		Distribution:    dynamicity.DistributionBySize(entries),
	}
}

// Render writes the distribution table.
func (r Figure1Result) Render(w io.Writer) {
	rows := make([][]string, 0, len(r.Distribution))
	for _, d := range r.Distribution {
		rows = append(rows, []string{
			fmt.Sprintf("/%d", d.Bits), fmt.Sprint(d.Count),
			fmt.Sprintf("%.1f%%", d.MinPct), fmt.Sprintf("%.1f%%", d.MedianPct),
			fmt.Sprintf("%.1f%%", d.MaxPct),
		})
	}
	textplot.Table(w, "Figure 1: fraction of dynamic /24s per announced prefix",
		[]string{"Announced size", "Prefixes", "Min", "Median", "Max"}, rows)
	fmt.Fprintf(w, "  /24s with PTRs: %d; labelled dynamic: %d (%.2f%%)\n",
		r.TotalSlash24s, r.DynamicSlash24s,
		100*float64(r.DynamicSlash24s)/float64(max(1, r.TotalSlash24s)))
	fmt.Fprintf(w, "  (paper: 6,151,219 /24s, 134,451 dynamic = 2.19%%)\n\n")
}

// Table2Result reproduces Table 2: the reactive back-off schedule.
type Table2Result struct {
	Steps []reactive.BackoffStep
}

// Table2 returns the schedule in use.
func (s *Study) Table2() Table2Result {
	return Table2Result{Steps: reactive.PaperBackoff()}
}

// Render writes the schedule.
func (r Table2Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Table 2: reactive measurement back-off schedule\n")
	fmt.Fprintf(w, "===============================================\n")
	fmt.Fprintf(w, "%s\n\n", indent(reactive.ScheduleString(r.Steps), "  "))
}

// Figure2Result reproduces Figure 2: given-name occurrences, all vs
// filtered, in the paper's name order.
type Figure2Result struct {
	Names    []string
	All      map[string]int
	Filtered map[string]int
}

// Figure2 extracts the data from the Section 5 analysis.
func (s *Study) Figure2() Figure2Result {
	leak := s.PrivLeak()
	return Figure2Result{
		Names:    names.Top50,
		All:      leak.AllNameMatches,
		Filtered: leak.FilteredNameMatches,
	}
}

// Render writes the bar chart.
func (r Figure2Result) Render(w io.Writer) {
	items := make([]textplot.BarItem, 0, len(r.Names))
	for _, n := range r.Names {
		items = append(items, textplot.BarItem{
			Label: n, Value: float64(r.All[n]), Value2: float64(r.Filtered[n]),
		})
	}
	textplot.Bars(w, "Figure 2: given names in reverse DNS entries (log scale)",
		items, textplot.BarsOptions{
			Log: true, Width: 40,
			FirstSeries: "all matches", SecondSeries: "filtered matches",
		})
}

// Figure3Result reproduces Figure 3: terms co-appearing with given names.
type Figure3Result struct {
	Terms                   []string
	All                     map[string]int
	Filtered                map[string]int
	TotalAll, TotalFiltered int
}

// Figure3 extracts the device-term co-occurrence data.
func (s *Study) Figure3() Figure3Result {
	leak := s.PrivLeak()
	r := Figure3Result{
		Terms:    names.DeviceTerms,
		All:      leak.AllDeviceTerms,
		Filtered: leak.FilteredDeviceTerms,
	}
	for _, c := range r.All {
		r.TotalAll += c
	}
	for _, c := range r.Filtered {
		r.TotalFiltered += c
	}
	return r
}

// Render writes the bar chart including the "total" column of the paper.
func (r Figure3Result) Render(w io.Writer) {
	items := []textplot.BarItem{{
		Label: "total", Value: float64(r.TotalAll), Value2: float64(r.TotalFiltered),
	}}
	for _, t := range r.Terms {
		items = append(items, textplot.BarItem{
			Label: t, Value: float64(r.All[t]), Value2: float64(r.Filtered[t]),
		})
	}
	textplot.Bars(w, "Figure 3: device terms alongside given names (log scale)",
		items, textplot.BarsOptions{
			Log: true, Width: 40,
			FirstSeries: "all matches", SecondSeries: "filtered matches",
		})
}

// Figure4Result reproduces Figure 4: identified networks by type.
type Figure4Result struct {
	Identified int
	ByType     map[string]int
}

// Figure4 computes the type breakdown of identified networks.
func (s *Study) Figure4() Figure4Result {
	leak := s.PrivLeak()
	byType := make(map[string]int)
	for t, c := range leak.TypeBreakdown() {
		byType[t.String()] = c
	}
	return Figure4Result{Identified: len(leak.Identified), ByType: byType}
}

// Render writes the breakdown.
func (r Figure4Result) Render(w io.Writer) {
	textplot.Breakdown(w, fmt.Sprintf(
		"Figure 4: breakdown of the %d identified networks by type", r.Identified),
		r.ByType)
	fmt.Fprintf(w, "  (paper: 197 networks; 62%% academic, 15%% ISP, 11%% other,\n"+
		"   9%% enterprise, 3%% government)\n\n")
}

// Table3Result reproduces Table 3: supplemental measurement statistics.
type Table3Result struct {
	Start, End     time.Time
	ICMPResponses  uint64
	ICMPUniqueIPs  int
	RDNSResponses  uint64
	RDNSUniqueIPs  int
	RDNSUniquePTRs int
}

// Table3 summarizes the supplemental run.
func (s *Study) Table3() Table3Result {
	res := s.Supplemental()
	return Table3Result{
		Start: s.Cfg.SupplementalStart, End: s.Cfg.SupplementalEnd,
		ICMPResponses: res.ICMPResponses, ICMPUniqueIPs: res.ICMPUniqueIPs,
		RDNSResponses: res.RDNSResponses, RDNSUniqueIPs: res.RDNSUniqueIPs,
		RDNSUniquePTRs: res.RDNSUniquePTRs,
	}
}

// Render writes the table.
func (r Table3Result) Render(w io.Writer) {
	textplot.Table(w, "Table 3: supplemental measurement statistics",
		[]string{"Probe", "Start", "End", "Total responses", "Unique IPs", "Unique PTRs"},
		[][]string{
			{"ICMP", r.Start.Format(dataset.DateFormat), r.End.Format(dataset.DateFormat),
				fmt.Sprint(r.ICMPResponses), fmt.Sprint(r.ICMPUniqueIPs), "-"},
			{"rDNS", r.Start.Format(dataset.DateFormat), r.End.Format(dataset.DateFormat),
				fmt.Sprint(r.RDNSResponses), fmt.Sprint(r.RDNSUniqueIPs),
				fmt.Sprint(r.RDNSUniquePTRs)},
		})
}

// Table4Row is one network of Table 4.
type Table4Row struct {
	Network     string
	Type        string
	TargetSize  string
	Targeted    int
	Observed    int
	ObservedPct float64
	ICMPBlocked bool
}

// Table4Result reproduces Table 4.
type Table4Result struct{ Rows []Table4Row }

// Table4 reports the nine supplemental networks' observability.
func (s *Study) Table4() Table4Result {
	res := s.Supplemental()
	var rows []Table4Row
	for _, t := range s.SupplementalTargets() {
		n, _ := s.Universe.NetworkByName(t.Name)
		targeted := 0
		for _, p := range t.Prefixes {
			targeted += p.NumAddresses()
		}
		observed := res.PerNetworkAlive[t.Name]
		rows = append(rows, Table4Row{
			Network:     t.Name,
			Type:        n.Config().Type.String(),
			TargetSize:  fmt.Sprintf("%d x /24", len(t.Prefixes)),
			Targeted:    targeted,
			Observed:    observed,
			ObservedPct: 100 * float64(observed) / float64(max(1, targeted)),
			ICMPBlocked: n.Config().BlockICMP,
		})
	}
	return Table4Result{Rows: rows}
}

// Render writes the table.
func (r Table4Result) Render(w io.Writer) {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		note := ""
		if row.ICMPBlocked {
			note = "blocks ICMP"
		}
		rows = append(rows, []string{
			row.Network, row.Type, row.TargetSize,
			fmt.Sprint(row.Observed), fmt.Sprintf("%.1f%%", row.ObservedPct), note,
		})
	}
	textplot.Table(w, "Table 4: supplemental networks and ICMP observability",
		[]string{"Network", "Type", "Targeted size", "Addresses observed", "Percent", "Note"},
		rows)
}

// Table5Result reproduces Table 5: the group funnel.
type Table5Result struct{ Funnel reactive.Funnel }

// Table5 computes the funnel over the supplemental groups.
func (s *Study) Table5() Table5Result {
	return Table5Result{Funnel: s.Supplemental().Funnel()}
}

// Render writes the funnel.
func (r Table5Result) Render(w io.Writer) {
	f := r.Funnel
	textplot.Table(w, "Table 5: breakdown of supplemental measurement groups",
		[]string{"Level", "Groups", "Fraction of parent"},
		[][]string{
			{"All groups", fmt.Sprint(f.All), "100.0%"},
			{"Successful responses", fmt.Sprint(f.Successful), pct(f.Fraction(1))},
			{"PTR reverted", fmt.Sprint(f.Reverted), pct(f.Fraction(2))},
			{"Reliable timing alignment", fmt.Sprint(f.Reliable), pct(f.Fraction(3))},
		})
	fmt.Fprintf(w, "  (paper: 6,297,080 -> 582,814 (9.3%%) -> 581,923 (99.9%%) -> 419,453 (72.1%%))\n\n")
}

// Figure6Result reproduces Figure 6: DNS errors per day.
type Figure6Result struct{ Days []*reactive.DayCounts }

// Figure6 reports per-day error accounting.
func (s *Study) Figure6() Figure6Result {
	days := append([]*reactive.DayCounts(nil), s.Supplemental().Days...)
	sort.Slice(days, func(i, j int) bool { return days[i].Day.Before(days[j].Day) })
	return Figure6Result{Days: days}
}

// Render writes a per-day table.
func (r Figure6Result) Render(w io.Writer) {
	rows := make([][]string, 0, len(r.Days))
	for _, d := range r.Days {
		rows = append(rows, []string{
			d.Day.Format(dataset.DateFormat), fmt.Sprint(d.UniqueIPs),
			fmt.Sprint(d.NXDomain), fmt.Sprint(d.ServFail), fmt.Sprint(d.Timeout),
		})
	}
	textplot.Table(w, "Figure 6: DNS responses and errors per day (supplemental)",
		[]string{"Day", "Unique IPs", "NXDOMAIN", "Nameserver failure", "Timeout"}, rows)
}

// Figure7aResult reproduces Figure 7a: histogram of minutes between last
// ICMP sample and PTR removal.
type Figure7aResult struct {
	Histogram *analysis.Histogram
	// PeaksAtMinutes lists histogram peaks (bin centers, minutes).
	PeaksAtMinutes []float64
}

// Figure7a builds the removal-delta histogram over reliable groups, in
// 5-minute bins across the first three hours, as the paper plots.
func (s *Study) Figure7a() Figure7aResult {
	h := analysis.NewHistogram(0, 180, 36)
	for _, d := range s.Supplemental().RemovalDeltas("") {
		h.Observe(d)
	}
	var peaks []float64
	for _, b := range h.PeakBins(h.Total() / 50) {
		peaks = append(peaks, h.BinCenter(b))
	}
	return Figure7aResult{Histogram: h, PeaksAtMinutes: peaks}
}

// Render writes the histogram.
func (r Figure7aResult) Render(w io.Writer) {
	textplot.HistogramPlot(w,
		"Figure 7a: minutes between last ICMP sample and PTR removal",
		r.Histogram, "m", 46)
	fmt.Fprintf(w, "  peaks near (minutes): %v\n", r.PeaksAtMinutes)
	fmt.Fprintf(w, "  (paper: a peak near 5 minutes from DHCP releases and peaks at\n"+
		"   multiples of an hour from lease expiry)\n\n")
}

// Figure7bResult reproduces Figure 7b: per-network removal-delta CDFs.
type Figure7bResult struct {
	// CDFs maps network name to its delta CDF (minutes).
	CDFs map[string]*analysis.CDF
	// Within60Overall is the overall fraction of deltas at or below 60
	// minutes — the paper's "9 out of 10 cases".
	Within60Overall float64
}

// Figure7b builds per-network CDFs over the networks with usable data.
func (s *Study) Figure7b() Figure7bResult {
	res := s.Supplemental()
	out := Figure7bResult{CDFs: make(map[string]*analysis.CDF)}
	var all []float64
	for _, t := range s.SupplementalTargets() {
		deltas := res.RemovalDeltas(t.Name)
		if len(deltas) == 0 {
			continue
		}
		out.CDFs[t.Name] = analysis.NewCDF(deltas)
		all = append(all, deltas...)
	}
	if len(all) > 0 {
		out.Within60Overall = analysis.NewCDF(all).At(60)
	}
	return out
}

// Render writes the CDF table.
func (r Figure7bResult) Render(w io.Writer) {
	keys := make([]string, 0, len(r.CDFs))
	for k := range r.CDFs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	curves := make([]textplot.Curve, 0, len(keys))
	for _, k := range keys {
		curves = append(curves, textplot.Curve{Label: k, CDF: r.CDFs[k]})
	}
	textplot.CDFPlot(w, "Figure 7b: per-network CDF of PTR removal delay",
		curves, 120, 12, "minutes")
	fmt.Fprintf(w, "  overall fraction within 60 minutes: %.1f%% (paper: ~90%%)\n\n",
		100*r.Within60Overall)
}

// Figure8Result reproduces Figure 8: six weeks of Brian devices on
// Academic-A.
type Figure8Result struct {
	Network string
	Start   time.Time
	Weeks   int
	Tracks  []*casestudy.DeviceTrack
	// Note9FirstSeen is when brians-galaxy-note9 first appeared; the
	// paper ties it to Cyber Monday afternoon.
	Note9FirstSeen time.Time
}

// Figure8 tracks Brian devices across the supplemental window.
func (s *Study) Figure8() Figure8Result {
	res := s.Supplemental()
	tracks := casestudy.TrackName(res, "Academic-A", "brian")
	r := Figure8Result{
		Network: "Academic-A",
		Start:   s.Cfg.SupplementalStart,
		Weeks:   int(s.Cfg.SupplementalEnd.Sub(s.Cfg.SupplementalStart).Hours()/24/7 + 0.5),
		Tracks:  tracks,
	}
	for _, tr := range tracks {
		if tr.Device == "brians-galaxy-note9" {
			r.Note9FirstSeen = tr.FirstSeen()
		}
	}
	return r
}

// Render draws the weekly raster with weekend and Thanksgiving shading.
func (r Figure8Result) Render(w io.Writer) {
	thanksgiving := time.Date(2021, 11, 25, 0, 0, 0, 0, r.Start.Location())
	highlight := func(d time.Time) rune {
		if !d.Before(thanksgiving) && d.Before(thanksgiving.AddDate(0, 0, 4)) {
			return '▒' // Thanksgiving weekend
		}
		if d.Weekday() == time.Saturday || d.Weekday() == time.Sunday {
			return '░'
		}
		return ' '
	}
	tracks := make([]textplot.RasterTrack, 0, len(r.Tracks))
	for _, tr := range r.Tracks {
		tr := tr
		tracks = append(tracks, textplot.RasterTrack{
			Label:     tr.Device,
			PresentOn: tr.PresentOn,
		})
	}
	textplot.Raster(w, fmt.Sprintf("Figure 8: %d weeks in the Life of Brian(s) on %s",
		r.Weeks, r.Network), tracks, r.Start, r.Weeks, highlight)
	if !r.Note9FirstSeen.IsZero() {
		fmt.Fprintf(w, "  brians-galaxy-note9 first seen: %s (Cyber Monday 2021 was 2021-11-29)\n",
			r.Note9FirstSeen.Format("2006-01-02 15:04 Mon"))
	}
	fmt.Fprintln(w)
}

// Figure9Result reproduces Figure 9: longitudinal percent-of-max entries
// for the selected networks.
type Figure9Result struct {
	Reports []casestudy.WFHReport
}

// Figure9 computes the work-from-home series for the three academic and
// two ICMP-blocking enterprise networks (the paper's selection).
func (s *Study) Figure9() Figure9Result {
	selection := []struct {
		name     string
		lockdown time.Time
	}{
		{"Academic-A", date(2020, time.March, 16)},
		{"Academic-B", date(2020, time.March, 16)},
		{"Academic-C", date(2020, time.March, 13)},
		{"Enterprise-B", date(2021, time.March, 15)},
		{"Enterprise-C", date(2021, time.March, 15)},
	}
	daily := s.Series(scan.Daily)
	var out Figure9Result
	for _, sel := range selection {
		n, _ := s.Universe.NetworkByName(sel.name)
		totals := casestudy.EntrySeries(daily, []dnswire.Prefix{n.Config().Announced})
		out.Reports = append(out.Reports, casestudy.WFH(sel.name, totals, sel.lockdown))
	}
	return out
}

// Render writes the sparkline series plus the drop summary.
func (r Figure9Result) Render(w io.Writer) {
	series := make([]textplot.LabeledSeries, 0, len(r.Reports))
	for _, rep := range r.Reports {
		series = append(series, textplot.LabeledSeries{
			Label: rep.Network, Series: rep.PercentOfMax,
		})
	}
	textplot.TimeSeries(w, "Figure 9: reverse DNS entries, percent of maximum", series, 80)
	rows := make([][]string, 0, len(r.Reports))
	for _, rep := range r.Reports {
		rows = append(rows, []string{
			rep.Network,
			fmt.Sprintf("%.0f%%", rep.PrePandemicMean),
			fmt.Sprintf("%.0f%%", rep.LockdownMean),
		})
	}
	textplot.Table(w, "Figure 9 summary: mean entries before vs during lockdown",
		[]string{"Network", "Pre-lockdown", "Lockdown"}, rows)
}

// Figure10Result reproduces Figure 10: the Academic-C education vs housing
// crossover, with daily (OpenINTEL-like) and weekly (Rapid7-like) series.
type Figure10Result struct {
	Daily  casestudy.CrossoverReport
	Weekly casestudy.CrossoverReport
}

// Figure10 computes the per-subnet series for Academic-C.
func (s *Study) Figure10() Figure10Result {
	n, _ := s.Universe.NetworkByName("Academic-C")
	edu, housing := netsim.EducationHousingSplit(n)
	searchFrom := date(2020, time.February, 1)

	daily, weekly := s.Series(scan.Daily), s.Series(scan.Weekly)
	return Figure10Result{
		Daily: casestudy.Crossover(
			casestudy.EntrySeries(daily, edu),
			casestudy.EntrySeries(daily, housing), searchFrom, 7),
		Weekly: casestudy.Crossover(
			casestudy.EntrySeries(weekly, edu),
			casestudy.EntrySeries(weekly, housing), searchFrom, 2),
	}
}

// Render writes both overlays and the detected crossover dates.
func (r Figure10Result) Render(w io.Writer) {
	textplot.TimeSeries(w, "Figure 10: Academic-C education vs housing (daily, percent of max)",
		[]textplot.LabeledSeries{
			{Label: "education", Series: r.Daily.Education},
			{Label: "housing", Series: r.Daily.Housing},
		}, 80)
	textplot.TimeSeries(w, "Figure 10 (weekly Rapid7-like overlay)",
		[]textplot.LabeledSeries{
			{Label: "education", Series: r.Weekly.Education},
			{Label: "housing", Series: r.Weekly.Housing},
		}, 80)
	fmt.Fprintf(w, "  crossover (daily):  %s\n", fmtDate(r.Daily.Crossover))
	fmt.Fprintf(w, "  crossover (weekly): %s\n", fmtDate(r.Weekly.Crossover))
	fmt.Fprintf(w, "  (paper: education/housing crossover in March 2020)\n\n")
}

// Figure11Result reproduces Figure 11: one week of activity on Academic-A.
type Figure11Result struct {
	Report casestudy.HeistReport
	From   time.Time
}

// Figure11 profiles the first full week of November 2021 on Academic-A.
func (s *Study) Figure11() Figure11Result {
	from := date(2021, time.November, 1)
	return Figure11Result{
		Report: casestudy.Heist(s.Supplemental(), "Academic-A", from, from.AddDate(0, 0, 7)),
		From:   from,
	}
}

// Render writes the hourly series and the verdict.
func (r Figure11Result) Render(w io.Writer) {
	icmp := analysis.Series{}
	rdns := analysis.Series{}
	for _, hc := range r.Report.Hours {
		icmp.Dates = append(icmp.Dates, hc.Hour)
		icmp.Values = append(icmp.Values, float64(hc.ICMP))
		rdns.Dates = append(rdns.Dates, hc.Hour)
		rdns.Values = append(rdns.Values, float64(hc.RDNS))
	}
	textplot.TimeSeries(w, "Figure 11: one week of measurements on Academic-A (hourly)",
		[]textplot.LabeledSeries{
			{Label: "ICMP", Series: icmp},
			{Label: "rDNS", Series: rdns},
		}, 84)
	fmt.Fprintf(w, "  quietest weekday hour: %02d:00 (paper: ~6AM)\n", r.Report.QuietestHourOfDay)
	fmt.Fprintf(w, "  busiest weekday hour:  %02d:00\n\n", r.Report.BusiestHourOfDay)
}

// ValidationResult reproduces the Section 4.1 ground-truth validation.
type ValidationResult struct {
	TruePositives  int
	FalsePositives int
	FalseNegatives int
	WantDynamic    int
	StaticFlagged  int
}

// Validation builds a fresh ground-truth campus, scans it for three months
// and checks the heuristic against the numbering plan.
func (s *Study) Validation() (ValidationResult, error) {
	campus, truth, err := netsim.BuildValidationCampus(s.Cfg.Seed+1, time.UTC)
	if err != nil {
		return ValidationResult{}, err
	}
	u := &netsim.Universe{Networks: []*netsim.Network{campus}}
	res := scan.Run(scan.Campaign{
		Universe: u,
		Start:    s.Cfg.DynamicityStart,
		End:      s.Cfg.DynamicityEnd,
		Cadence:  scan.Daily,
	})
	verdict := dynamicity.Analyze(res.Series, dynamicity.PaperConfig())
	flagged := make(map[dnswire.Prefix]bool)
	for _, p := range verdict.DynamicPrefixes {
		flagged[p] = true
	}
	out := ValidationResult{WantDynamic: len(truth["dynamic"])}
	for _, p := range truth["dynamic"] {
		if flagged[p] {
			out.TruePositives++
		} else {
			out.FalseNegatives++
		}
		delete(flagged, p)
	}
	for range flagged {
		out.FalsePositives++
	}
	for _, class := range []string{"dhcp-static", "static", "empty"} {
		for _, p := range truth[class] {
			if verdict.IsDynamic(p) {
				out.StaticFlagged++
			}
		}
	}
	return out, nil
}

// Render writes the validation summary.
func (r ValidationResult) Render(w io.Writer) {
	textplot.Table(w, "Section 4.1 validation: ground-truth campus /16",
		[]string{"Metric", "Value", "Paper"},
		[][]string{
			{"dynamic prefixes (truth)", fmt.Sprint(r.WantDynamic), "40"},
			{"true positives", fmt.Sprint(r.TruePositives), "40"},
			{"false positives", fmt.Sprint(r.FalsePositives), "0"},
			{"false negatives", fmt.Sprint(r.FalseNegatives), "0"},
			{"DHCP-but-static flagged", fmt.Sprint(r.StaticFlagged), "0 (83 prefixes correctly static)"},
		})
}

// helpers

func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

func fmtDate(t time.Time) string {
	if t.IsZero() {
		return "(none)"
	}
	return t.Format(dataset.DateFormat)
}

func indent(s, prefix string) string {
	out := prefix
	for _, r := range s {
		out += string(r)
		if r == '\n' {
			out += prefix
		}
	}
	return out
}
