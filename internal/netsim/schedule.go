package netsim

import (
	"cmp"
	"slices"
	"time"
)

// Archetype classifies the presence behaviour of a device's owner.
type Archetype int

// Archetypes.
const (
	// Staff works on-site on weekdays, roughly 8-18h.
	Staff Archetype = iota
	// Student attends on weekdays in shorter, patchier sessions.
	Student
	// Resident lives on site (campus housing): mornings, evenings,
	// weekends, and all day when studying from their room.
	Resident
	// Employee is Staff in an enterprise network.
	Employee
	// HomeUser is an ISP subscriber: evenings and weekends dominate.
	HomeUser
	// Infra devices are always on (printers, servers, APs).
	Infra
)

// String returns a mnemonic.
func (a Archetype) String() string {
	switch a {
	case Staff:
		return "staff"
	case Student:
		return "student"
	case Resident:
		return "resident"
	case Employee:
		return "employee"
	case HomeUser:
		return "home-user"
	case Infra:
		return "infra"
	default:
		return "unknown"
	}
}

// Session is one contiguous presence interval within a day, as offsets from
// local midnight. End may exceed 24h for sessions running past midnight;
// such overflow is truncated at the day boundary by callers that need
// day-contained intervals.
type Session struct {
	Start time.Duration
	End   time.Duration
}

// Scheduler produces the presence sessions of a device for a given date.
// Implementations must be deterministic: the same date yields the same
// sessions.
type Scheduler interface {
	// SessionsOn returns the device's presence intervals for the day
	// containing date (which is local midnight of that day). occupancy
	// in [0,1] scales the probability that the device shows up at all,
	// and comes from the network's COVID timeline and calendar.
	SessionsOn(date time.Time, occupancy float64) []Session
}

// archetypeScheduler derives presence from an archetype plus per-device
// jitter. Every draw hashes (seed, id, day, salt) or (seed, id, salt); the
// scheduler keeps the FNV-1a state after (seed, id), and SessionsOn extends
// it once by the day and then once per draw.
type archetypeScheduler struct {
	arch Archetype
	h    uint64 // hash64(seed, id)
}

// NewArchetypeScheduler builds the standard scheduler for an archetype.
// id must be unique per device; seed is the universe seed.
func NewArchetypeScheduler(arch Archetype, id, seed uint64) Scheduler {
	return &archetypeScheduler{arch: arch, h: hash64(seed, id)}
}

const (
	saltShowUp = iota + 1
	saltArrive
	saltDepart
	saltLunch
	saltEvening
	saltSession2
	saltWake
	saltNight
	saltWeekend
	saltHomebody
)

func (s *archetypeScheduler) SessionsOn(date time.Time, occupancy float64) []Session {
	dh := hashMore(s.h, dayNumber(date)) // (seed, id, day): each draw adds its salt
	weekend := isWeekend(date)

	// Probability the device appears at all today.
	base := s.showUpProbability(weekend)
	p := base * occupancy
	if s.arch == Infra {
		p = 1 // infrastructure ignores occupancy
	}
	if !chance(p, hashMore(dh, saltShowUp)) {
		return nil
	}

	switch s.arch {
	case Infra:
		return []Session{{0, 24 * time.Hour}}
	case Staff, Employee:
		return s.workday(dh, weekend)
	case Student:
		return s.studentDay(dh, weekend)
	case Resident:
		return s.residentDay(dh, weekend, occupancy)
	case HomeUser:
		return s.homeDay(dh, weekend)
	}
	return nil
}

func (s *archetypeScheduler) showUpProbability(weekend bool) float64 {
	switch s.arch {
	case Staff, Employee:
		if weekend {
			return 0.06
		}
		return 0.92
	case Student:
		if weekend {
			return 0.12
		}
		return 0.85
	case Resident:
		if weekend {
			return 0.75
		}
		return 0.92
	case HomeUser:
		if weekend {
			return 0.9
		}
		return 0.82
	case Infra:
		return 1
	}
	return 0
}

// workday: arrive 7:30-9:30, depart 16:00-19:00, occasionally a lunch gap.
func (s *archetypeScheduler) workday(dh uint64, weekend bool) []Session {
	arrive := 7*time.Hour + 30*time.Minute + spread(2*time.Hour, hashMore(dh, saltArrive))
	depart := 16*time.Hour + spread(3*time.Hour, hashMore(dh, saltDepart))
	if weekend {
		// A short weekend visit.
		arrive = 10*time.Hour + spread(4*time.Hour, hashMore(dh, saltArrive))
		depart = arrive + time.Hour + spread(3*time.Hour, hashMore(dh, saltDepart))
		return clipDay([]Session{{arrive, depart}})
	}
	if chance(0.3, hashMore(dh, saltLunch)) {
		lunchAt := 12*time.Hour + spread(time.Hour, hashMore(dh, saltLunch+100))
		return clipDay([]Session{
			{arrive, lunchAt},
			{lunchAt + 30*time.Minute, depart},
		})
	}
	return clipDay([]Session{{arrive, depart}})
}

// studentDay: one or two lecture-block sessions between 8 and 18.
func (s *archetypeScheduler) studentDay(dh uint64, weekend bool) []Session {
	if weekend {
		start := 11*time.Hour + spread(6*time.Hour, hashMore(dh, saltArrive))
		return clipDay([]Session{{start, start + 30*time.Minute + spread(2*time.Hour, hashMore(dh, saltDepart))}})
	}
	first := 8*time.Hour + spread(3*time.Hour, hashMore(dh, saltArrive))
	length := time.Hour + spread(3*time.Hour, hashMore(dh, saltDepart))
	sessions := []Session{{first, first + length}}
	if chance(0.55, hashMore(dh, saltSession2)) {
		second := first + length + 30*time.Minute + spread(2*time.Hour, hashMore(dh, saltSession2+100))
		sessions = append(sessions, Session{second, second + time.Hour + spread(2*time.Hour, hashMore(dh, saltSession2+200))})
	}
	return clipDay(sessions)
}

// residentDay: morning before leaving, evening after return; during heavy
// occupancy restrictions (lockdown studying-from-room), most of the day.
// A stable per-device fraction are "homebody" devices — desktops, consoles,
// smart TVs — that stay connected all day whenever their owner is around,
// which is what keeps campus-housing subnets populated at midday even
// outside lockdowns.
func (s *archetypeScheduler) residentDay(dh uint64, weekend bool, occupancy float64) []Session {
	wake := 6*time.Hour + spread(3*time.Hour, hashMore(dh, saltWake))
	// Students keep long and varied hours: the long tail past midnight
	// is what makes ~6 AM the campus's quietest moment (Figure 11).
	night := 21*time.Hour + spread(8*time.Hour, hashMore(dh, saltNight))
	homebody := chance(0.45, hashMore(s.h, saltHomebody))
	if weekend || homebody || occupancy > 1.05 {
		// Home most of the day (weekends, homebody devices, or
		// lockdown regimes where the timeline pushes housing
		// occupancy above its normal level).
		return clipDay([]Session{{wake, night}})
	}
	leave := 8*time.Hour + 30*time.Minute + spread(90*time.Minute, hashMore(dh, saltArrive))
	back := 16*time.Hour + spread(3*time.Hour, hashMore(dh, saltDepart))
	if leave <= wake {
		leave = wake + 15*time.Minute
	}
	return clipDay([]Session{{wake, leave}, {back, night}})
}

// homeDay: an evening block, plus a daytime block on weekends or for the
// fraction who are home during the day.
func (s *archetypeScheduler) homeDay(dh uint64, weekend bool) []Session {
	evening := 17*time.Hour + spread(3*time.Hour, hashMore(dh, saltEvening))
	night := 21*time.Hour + spread(6*time.Hour, hashMore(dh, saltNight))
	sessions := []Session{{evening, night}}
	daytime := weekend || chance(0.25, hashMore(dh, saltWeekend))
	if daytime {
		start := 9*time.Hour + spread(2*time.Hour, hashMore(dh, saltWake))
		sessions = append(sessions, Session{start, start + 3*time.Hour + spread(5*time.Hour, hashMore(dh, saltWeekend+100))})
	}
	return clipDay(mergeSessions(sessions))
}

// maxSessionEnd bounds how far past midnight a session may run. Sessions
// belong to the day they start on; presence evaluation checks the previous
// day's sessions for spill-over.
const maxSessionEnd = 28 * time.Hour

// clipDay clamps sessions to [0, maxSessionEnd) and drops empty ones.
// Sessions may cross midnight (End > 24h): late-night device use is real
// and shapes the diurnal activity minimum.
func clipDay(in []Session) []Session {
	out := in[:0]
	for _, s := range in {
		if s.Start < 0 {
			s.Start = 0
		}
		if s.Start >= 24*time.Hour {
			continue
		}
		if s.End > maxSessionEnd {
			s.End = maxSessionEnd
		}
		if s.End > s.Start {
			out = append(out, s)
		}
	}
	return out
}

// mergeSessions sorts and merges overlapping sessions.
func mergeSessions(in []Session) []Session {
	if len(in) <= 1 {
		return in
	}
	slices.SortFunc(in, func(a, b Session) int { return cmp.Compare(a.Start, b.Start) })
	out := in[:1]
	for _, s := range in[1:] {
		last := &out[len(out)-1]
		if s.Start <= last.End {
			if s.End > last.End {
				last.End = s.End
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// isWeekend reports whether date falls on Saturday or Sunday.
func isWeekend(date time.Time) bool {
	wd := date.Weekday()
	return wd == time.Saturday || wd == time.Sunday
}

// ScriptedScheduler plays back an explicit script: a map from weekday to
// sessions, active only between Activate and Deactivate (zero values mean
// unbounded). The case studies use it to plant specific devices — for
// example a brians-galaxy-note9 that first appears on Cyber Monday
// afternoon (Section 7.1).
type ScriptedScheduler struct {
	// Weekly holds the base sessions per weekday.
	Weekly map[time.Weekday][]Session
	// Overrides replaces the sessions entirely for specific dates
	// (keyed by local midnight).
	Overrides map[time.Time][]Session
	// Activate is the first day the device exists; zero means always.
	Activate time.Time
	// Deactivate is the first day the device is gone; zero means never.
	Deactivate time.Time
	// AbsentDates lists days the device is away (holiday trips).
	AbsentDates map[time.Time]bool
}

// SessionsOn implements Scheduler. Scripted devices ignore occupancy: their
// script is their truth.
func (s *ScriptedScheduler) SessionsOn(date time.Time, _ float64) []Session {
	if !s.Activate.IsZero() && date.Before(s.Activate) {
		return nil
	}
	if !s.Deactivate.IsZero() && !date.Before(s.Deactivate) {
		return nil
	}
	if s.AbsentDates[date] {
		return nil
	}
	if sessions, ok := s.Overrides[date]; ok {
		return sessions
	}
	return s.Weekly[date.Weekday()]
}
