package main

import (
	"strings"
	"testing"
	"time"

	"rdnsprivacy/internal/dnswire"
)

func TestSeriesFromCSV(t *testing.T) {
	csv := strings.Join([]string{
		"date,ip,ptr",
		"2021-01-01,10.0.0.1,h.example.edu",
		"2021-01-01,10.0.0.2,h.example.edu",
		// Duplicate observation on the same day must count once.
		"2021-01-01,10.0.0.2,h.example.edu",
		"2021-01-02,10.0.0.1,h.example.edu",
		// A different /24.
		"2021-01-02,10.0.1.9,h.example.edu",
	}, "\n") + "\n"
	series, err := seriesFromCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	day1 := time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC)
	if len(series.Dates) != 2 || !series.Dates[0].Equal(day1) {
		t.Fatalf("dates = %v", series.Dates)
	}
	p1 := dnswire.MustPrefix("10.0.0.0/24")
	p2 := dnswire.MustPrefix("10.0.1.0/24")
	if got := series.Counts[p1]; got[0] != 2 || got[1] != 1 {
		t.Fatalf("p1 counts = %v", got)
	}
	if got := series.Counts[p2]; got[0] != 0 || got[1] != 1 {
		t.Fatalf("p2 counts = %v", got)
	}
}

func TestSeriesFromCSVEmpty(t *testing.T) {
	series, err := seriesFromCSV(strings.NewReader("date,ip,ptr\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Dates) != 0 || len(series.Counts) != 0 {
		t.Fatalf("series = %+v", series)
	}
}

func TestSeriesFromCSVBadRow(t *testing.T) {
	for _, in := range []string{
		"date,ip,ptr\n2021-01-01,not-an-ip,h.example.edu\n",
		// cmd/rdnsscan's ip,outcome,ptr,rtt_ms output is not dynfind's input.
		"ip,outcome,ptr,rtt_ms\n192.0.2.1,found,h.example.edu,3\n",
	} {
		if _, err := seriesFromCSV(strings.NewReader(in)); err == nil {
			t.Errorf("bad input accepted: %q", in)
		}
	}
}
