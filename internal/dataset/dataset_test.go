package dataset

import (
	"reflect"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
)

var day = time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC)

func TestCountSeries(t *testing.T) {
	dates := DateRange(day, day.AddDate(0, 0, 2), 1)
	s := NewCountSeries(dates)
	p := dnswire.MustPrefix("192.0.2.0/24")
	s.Add(p, 0, 5)
	s.Add(p, 1, 3)
	s.Add(p, 1, 2)
	if got := s.Counts[p]; got[0] != 5 || got[1] != 5 || got[2] != 0 {
		t.Fatalf("counts = %v", got)
	}
	q := dnswire.MustPrefix("198.51.100.0/24")
	s.SetConstant(q, 7)
	if got := s.Counts[q]; len(got) != 3 || got[2] != 7 {
		t.Fatalf("constant row = %v", got)
	}

	// A cut keeps the chosen dates' columns and only the /24s counted on
	// one of them; a date outside the series reads as zero.
	cut := s.Cut([]time.Time{dates[2], dates[0].AddDate(0, 0, -1)})
	want := map[dnswire.Prefix][]int{q: {7, 0}}
	if !reflect.DeepEqual(cut.Counts, want) || len(cut.Dates) != 2 || !cut.Dates[0].Equal(dates[2]) {
		t.Fatalf("cut = %v over %v", cut.Counts, cut.Dates)
	}
	if got := s.Cut(dates[:2]).Counts; !reflect.DeepEqual(got, map[dnswire.Prefix][]int{p: {5, 5}, q: {7, 7}}) {
		t.Fatalf("cut of the first two days = %v", got)
	}
}

func TestStatsCollector(t *testing.T) {
	c := NewStatsCollector("test")
	name := dnswire.MustName("h.example.edu")
	c.Observe(day.AddDate(0, 0, 2), dnswire.MustIPv4("192.0.2.1"), name)
	c.Observe(day, dnswire.MustIPv4("192.0.2.1"), name)
	c.Observe(day, dnswire.MustIPv4("192.0.2.2"), dnswire.MustName("g.example.edu"))
	st := c.Stats()
	if st.TotalResponses != 3 {
		t.Fatalf("responses = %d", st.TotalResponses)
	}
	if st.UniqueIPs != 2 || st.UniquePTRs != 2 {
		t.Fatalf("unique = %d/%d", st.UniqueIPs, st.UniquePTRs)
	}
	if !st.Start.Equal(day) || !st.End.Equal(day.AddDate(0, 0, 2)) {
		t.Fatalf("range = %v..%v", st.Start, st.End)
	}
	c.ObserveRepeat(10)
	if c.Stats().TotalResponses != 13 {
		t.Fatalf("after repeat = %d", c.Stats().TotalResponses)
	}
	// A day counted apart from its distinct records: an empty day moves
	// nothing, a later one extends the range, and See adds only what is new.
	c.ObserveDay(day.AddDate(0, 0, 9), 0)
	c.ObserveDay(day.AddDate(0, 0, 3), 4)
	c.See(dnswire.MustIPv4("192.0.2.1"), name)
	c.See(dnswire.MustIPv4("192.0.2.3"), dnswire.MustName("f.example.edu"))
	st = c.Stats()
	if st.TotalResponses != 17 || st.UniqueIPs != 3 || st.UniquePTRs != 3 || !st.End.Equal(day.AddDate(0, 0, 3)) {
		t.Fatalf("after ObserveDay and See: %+v", st)
	}
}

func TestStatsString(t *testing.T) {
	st := Stats{Name: "x", Start: day, End: day, TotalResponses: 1, UniqueIPs: 2, UniquePTRs: 3}
	if st.String() == "" {
		t.Fatal("empty String()")
	}
}
