// Package reactive implements the paper's supplemental measurement
// (Section 6): an hourly ICMP sweep over selected networks, reactive
// fine-grained probing of hosts that newly appear, the Table 2 back-off
// schedule, reactive reverse-DNS follow-up once a host disappears, and the
// grouping/merging pipeline that turns raw probes into the activity groups
// behind Table 5 and Figures 6 and 7.
package reactive

import (
	"fmt"
	"strings"
	"time"
)

// BackoffStep is one row of the Table 2 schedule: Count probes at Interval
// spacing. A negative Count repeats indefinitely.
type BackoffStep struct {
	Interval time.Duration
	Count    int
}

// PaperBackoff returns the exact Table 2 schedule:
//
//	12 times in the 1st hour at 5-minute intervals
//	 6 times in the 2nd hour at 10-minute intervals
//	 3 times in the 3rd hour at 20-minute intervals
//	 2 times in the 4th hour at 30-minute intervals
//	 until client goes offline, once at 60-minute intervals
func PaperBackoff() []BackoffStep {
	return []BackoffStep{
		{5 * time.Minute, 12},
		{10 * time.Minute, 6},
		{20 * time.Minute, 3},
		{30 * time.Minute, 2},
		{60 * time.Minute, -1},
	}
}

// Backoff walks a schedule, yielding the next probe delay.
type Backoff struct {
	steps []BackoffStep
	step  int
	used  int
}

// NewBackoff starts a walk over the schedule.
func NewBackoff(steps []BackoffStep) *Backoff {
	return &Backoff{steps: steps}
}

// Next returns the delay until the next probe and whether the schedule has
// more probes. Schedules ending with a negative Count never run out.
func (b *Backoff) Next() (time.Duration, bool) {
	for b.step < len(b.steps) {
		s := b.steps[b.step]
		if s.Count < 0 {
			return s.Interval, true
		}
		if b.used < s.Count {
			b.used++
			return s.Interval, true
		}
		b.step++
		b.used = 0
	}
	return 0, false
}

// ScheduleString renders the schedule in Table 2's shape, for reports.
func ScheduleString(steps []BackoffStep) string {
	var sb strings.Builder
	for i, s := range steps {
		switch {
		case s.Count < 0:
			fmt.Fprintf(&sb, "until client goes offline, once at %d-minute intervals",
				int(s.Interval.Minutes()))
		default:
			fmt.Fprintf(&sb, "%d times at %d-minute intervals",
				s.Count, int(s.Interval.Minutes()))
		}
		if i < len(steps)-1 {
			sb.WriteString("\n")
		}
	}
	return sb.String()
}
