package netsim

import (
	"sort"
	"time"
)

// Occupancy scales the probability that devices of each archetype show up
// on a given day. 1 is normal; 0 empties the building; values above 1 are
// meaningful for Resident (more time spent in housing during lockdowns).
type Occupancy map[Archetype]float64

// Factor returns the factor for an archetype, defaulting to 1.
func (o Occupancy) Factor(a Archetype) float64 {
	if o == nil {
		return 1
	}
	if f, ok := o[a]; ok {
		return f
	}
	return 1
}

// Phase is one period of a Timeline with a fixed occupancy regime.
type Phase struct {
	// Start is the first day (local midnight) the phase applies.
	Start time.Time
	// Label describes the phase ("lockdown", "reopening").
	Label string
	// Occupancy scales presence per archetype during the phase.
	Occupancy Occupancy
}

// Timeline maps dates to occupancy regimes. It models the COVID-19 phases
// the paper reads out of rDNS entry counts (Section 7.2): lockdowns empty
// education and office buildings, students study from campus housing, and
// reopenings bring sharp recoveries.
type Timeline struct {
	phases []Phase
}

// NewTimeline builds a timeline; phases are sorted by start date.
func NewTimeline(phases ...Phase) *Timeline {
	t := &Timeline{phases: append([]Phase(nil), phases...)}
	sort.SliceStable(t.phases, func(i, j int) bool {
		return t.phases[i].Start.Before(t.phases[j].Start)
	})
	return t
}

// At returns the occupancy regime for a date. Dates before the first phase
// get the zero regime (all factors 1).
func (t *Timeline) At(date time.Time) Occupancy {
	if t == nil {
		return nil
	}
	var cur Occupancy
	for _, p := range t.phases {
		if p.Start.After(date) {
			break
		}
		cur = p.Occupancy
	}
	return cur
}

// Calendar marks days on which an archetype's presence is scaled (holiday
// breaks, long weekends). Factors multiply with the timeline's.
type Calendar struct {
	// Ranges lists date ranges with occupancy overrides.
	ranges []calendarRange
}

type calendarRange struct {
	from, to time.Time // inclusive from, exclusive to
	occ      Occupancy
	label    string
}

// AddRange marks [from, to) with an occupancy regime.
func (c *Calendar) AddRange(from, to time.Time, label string, occ Occupancy) {
	c.ranges = append(c.ranges, calendarRange{from: from, to: to, occ: occ, label: label})
}

// FactorOn returns the combined calendar factor for an archetype on date.
func (c *Calendar) FactorOn(date time.Time, a Archetype) float64 {
	if c == nil {
		return 1
	}
	f := 1.0
	for _, r := range c.ranges {
		if !date.Before(r.from) && date.Before(r.to) {
			f *= r.occ.Factor(a)
		}
	}
	return f
}

// date is shorthand for a local-midnight time.
func date(loc *time.Location, y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, loc)
}

// USAcademicCalendar builds the US campus calendar for the study period:
// Thanksgiving breaks (students travel home Thursday through Sunday),
// winter breaks, and fall breaks. The paper's Figure 8 hinges on the 2021
// Thanksgiving weekend (Nov 25-28) and Cyber Monday (Nov 29).
func USAcademicCalendar(loc *time.Location) *Calendar {
	c := &Calendar{}
	away := Occupancy{Student: 0.15, Resident: 0.2, Staff: 0.15, Employee: 0.3}
	// Thanksgiving: fourth Thursday of November through Sunday.
	for _, y := range []int{2019, 2020, 2021} {
		th := nthWeekday(loc, y, time.November, time.Thursday, 4)
		c.AddRange(th, th.AddDate(0, 0, 4), "thanksgiving", away)
	}
	// Winter break: Dec 20 - Jan 5.
	for _, y := range []int{2019, 2020, 2021} {
		c.AddRange(date(loc, y, time.December, 20), date(loc, y+1, time.January, 5), "winter-break", away)
	}
	// Fall break: a long weekend mid-October.
	for _, y := range []int{2019, 2020, 2021} {
		c.AddRange(date(loc, y, time.October, 14), date(loc, y, time.October, 17), "fall-break", away)
	}
	return c
}

// EUAcademicCalendar builds the European campus calendar: winter break, a
// fall holiday week at the end of October, and Carnaval in February (the
// local Catholic holiday the paper sees in Rapid7 data for Academic-C).
func EUAcademicCalendar(loc *time.Location) *Calendar {
	c := &Calendar{}
	away := Occupancy{Student: 0.2, Resident: 0.25, Staff: 0.2, Employee: 0.35}
	for _, y := range []int{2019, 2020, 2021} {
		c.AddRange(date(loc, y, time.December, 21), date(loc, y+1, time.January, 4), "christmas-break", away)
		c.AddRange(date(loc, y, time.October, 26), date(loc, y, time.November, 2), "fall-holiday-week", away)
	}
	// Carnaval: the week before Lent; pin to late February for the
	// study years (2020-02-23, 2021-02-14 are the relevant Sundays).
	c.AddRange(date(loc, 2020, time.February, 22), date(loc, 2020, time.February, 27), "carnaval", away)
	c.AddRange(date(loc, 2021, time.February, 13), date(loc, 2021, time.February, 18), "carnaval", away)
	return c
}

// nthWeekday returns the n-th weekday of a month (n starting at 1).
func nthWeekday(loc *time.Location, year int, month time.Month, wd time.Weekday, n int) time.Time {
	t := date(loc, year, month, 1)
	count := 0
	for {
		if t.Weekday() == wd {
			count++
			if count == n {
				return t
			}
		}
		t = t.AddDate(0, 0, 1)
	}
}

// USCampusCOVIDTimeline models a US campus's pandemic response with
// risk-level announcements that produce the sharp steps of Figure 9:
// on-site presence collapses in March 2020, student housing fills (students
// study from their rooms), and reopenings step presence back up.
func USCampusCOVIDTimeline(loc *time.Location) *Timeline {
	return NewTimeline(
		Phase{Start: date(loc, 2019, time.January, 1), Label: "normal", Occupancy: nil},
		Phase{Start: date(loc, 2020, time.March, 16), Label: "campus-closure", Occupancy: Occupancy{
			Staff: 0.18, Student: 0.15, Employee: 0.2, Resident: 1.15,
		}},
		Phase{Start: date(loc, 2020, time.August, 24), Label: "hybrid-fall", Occupancy: Occupancy{
			Staff: 0.55, Student: 0.5, Employee: 0.5, Resident: 1.05,
		}},
		Phase{Start: date(loc, 2020, time.November, 20), Label: "high-risk-advisory", Occupancy: Occupancy{
			Staff: 0.3, Student: 0.25, Employee: 0.3, Resident: 1.1,
		}},
		Phase{Start: date(loc, 2021, time.February, 1), Label: "moderate-risk", Occupancy: Occupancy{
			Staff: 0.5, Student: 0.45, Employee: 0.5, Resident: 1.05,
		}},
		Phase{Start: date(loc, 2021, time.May, 15), Label: "low-risk", Occupancy: Occupancy{
			Staff: 0.75, Student: 0.7, Employee: 0.75, Resident: 1.0,
		}},
		Phase{Start: date(loc, 2021, time.August, 23), Label: "reopened", Occupancy: Occupancy{
			Staff: 0.95, Student: 0.95, Employee: 0.95, Resident: 1.0,
		}},
	)
}

// EUCampusCOVIDTimeline models the home institution (Academic-C): a hard
// March 2020 lockdown producing the education/housing crossover of
// Figure 10, partial recovery, and near-normal levels by September 2021.
func EUCampusCOVIDTimeline(loc *time.Location) *Timeline {
	return NewTimeline(
		Phase{Start: date(loc, 2019, time.January, 1), Label: "normal", Occupancy: nil},
		Phase{Start: date(loc, 2020, time.March, 13), Label: "lockdown", Occupancy: Occupancy{
			Staff: 0.12, Student: 0.1, Employee: 0.15, Resident: 1.15,
		}},
		Phase{Start: date(loc, 2020, time.September, 1), Label: "partial-reopening", Occupancy: Occupancy{
			Staff: 0.45, Student: 0.4, Employee: 0.4, Resident: 1.05,
		}},
		Phase{Start: date(loc, 2020, time.December, 15), Label: "second-lockdown", Occupancy: Occupancy{
			Staff: 0.15, Student: 0.12, Employee: 0.18, Resident: 1.1,
		}},
		Phase{Start: date(loc, 2021, time.April, 28), Label: "easing", Occupancy: Occupancy{
			Staff: 0.5, Student: 0.45, Employee: 0.5, Resident: 1.05,
		}},
		Phase{Start: date(loc, 2021, time.September, 6), Label: "near-normal", Occupancy: Occupancy{
			Staff: 0.92, Student: 0.95, Employee: 0.9, Resident: 1.0,
		}},
	)
}

// EnterpriseCOVIDTimeline models an enterprise whose work-from-home mandate
// lands in March/April 2021 (the paper's Enterprise-B and -C show their
// sharp drops then), with partial return around May 2021.
func EnterpriseCOVIDTimeline(loc *time.Location, partialRecovery bool) *Timeline {
	phases := []Phase{
		{Start: date(loc, 2019, time.January, 1), Label: "normal", Occupancy: nil},
		{Start: date(loc, 2020, time.March, 20), Label: "first-wfh", Occupancy: Occupancy{
			Employee: 0.55, Staff: 0.55,
		}},
		{Start: date(loc, 2020, time.September, 10), Label: "partial-return", Occupancy: Occupancy{
			Employee: 0.8, Staff: 0.8,
		}},
		{Start: date(loc, 2021, time.March, 15), Label: "wfh-mandate", Occupancy: Occupancy{
			Employee: 0.25, Staff: 0.25,
		}},
	}
	if partialRecovery {
		phases = append(phases, Phase{
			Start: date(loc, 2021, time.May, 10), Label: "loosened", Occupancy: Occupancy{
				Employee: 0.6, Staff: 0.6,
			},
		})
	}
	return NewTimeline(phases...)
}
