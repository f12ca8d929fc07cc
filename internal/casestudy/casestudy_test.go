package casestudy

import (
	"testing"
	"time"

	"rdnsprivacy/internal/analysis"
	"rdnsprivacy/internal/dataset"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/ipam"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/reactive"
	"rdnsprivacy/internal/simclock"
)

var epoch = time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC) // Monday

func TestTrackNameFindsBrianDevices(t *testing.T) {
	cfg := netsim.Config{
		Name: "Academic-T", Type: netsim.Academic,
		Suffix:    dnswire.MustName("campus-t.edu"),
		Announced: dnswire.MustPrefix("10.81.0.0/20"),
		Blocks: []netsim.Block{{
			Kind: netsim.BlockDynamic, Prefix: dnswire.MustPrefix("10.81.1.0/24"),
			Policy: ipam.PolicyCarryOver, SubLabel: "dyn",
		}},
		LeaseTime: time.Hour,
		Seed:      9,
	}
	n, err := netsim.NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id uint64, host string, from, to time.Duration) *netsim.Device {
		return &netsim.Device{
			ID: id, Owner: "brian", Kind: netsim.KindIPhone, HostName: host,
			MAC: [6]byte{2, 0, 0, 0, 0, byte(id)}, SendRelease: true,
			Schedule: &netsim.ScriptedScheduler{Weekly: map[time.Weekday][]netsim.Session{
				time.Monday: {{Start: from, End: to}},
			}},
		}
	}
	n.AddDevice(mk(1, "Brian's iPhone", 9*time.Hour, 12*time.Hour), 0, netsim.Student)
	n.AddDevice(mk(2, "Brians-MBP", 11*time.Hour, 14*time.Hour), 0, netsim.Student)
	n.AddDevice(mk(3, "Emma's iPad", 9*time.Hour, 12*time.Hour), 0, netsim.Student)

	clock := simclock.NewSimulated(epoch)
	fab := fabric.New(clock, fabric.Config{Latency: 5 * time.Millisecond})
	if err := n.Start(fab); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	eng, err := reactive.NewEngine(fab, reactive.Config{
		Targets: []reactive.Target{{
			Name:     "Academic-T",
			Prefixes: []dnswire.Prefix{dnswire.MustPrefix("10.81.1.0/24")},
			DNS:      n.DNSAddr(),
		}},
		VantageICMP: dnswire.MustIPv4("198.51.100.10"),
		VantageDNS:  dnswire.MustIPv4("198.51.100.11"),
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	clock.AdvanceTo(epoch.Add(18 * time.Hour))
	eng.Stop()
	res := eng.Results()

	tracks := TrackName(res, "Academic-T", "brian")
	if len(tracks) != 2 {
		names := []string{}
		for _, tr := range tracks {
			names = append(names, tr.Device)
		}
		t.Fatalf("tracks = %v, want brians-iphone and brians-mbp", names)
	}
	if tracks[0].Device != "brians-iphone" || tracks[1].Device != "brians-mbp" {
		t.Fatalf("tracks = %v, %v", tracks[0].Device, tracks[1].Device)
	}
	// The iPhone was present mid-morning.
	if !tracks[0].PresentOn(epoch.Add(10*time.Hour), epoch.Add(11*time.Hour)) {
		t.Fatal("iphone not present 10:00-11:00")
	}
	if tracks[0].PresentOn(epoch.Add(15*time.Hour), epoch.Add(16*time.Hour)) {
		t.Fatal("iphone present after leaving")
	}
	if tracks[0].UniqueIPs != 1 {
		t.Fatalf("iphone unique IPs = %d", tracks[0].UniqueIPs)
	}
	// First seen once the 09:00 session was probed: before the MBP's 11:00.
	if first := tracks[0].FirstSeen(); first.Before(epoch.Add(9*time.Hour)) || !first.Before(tracks[1].FirstSeen()) {
		t.Fatalf("first seen: iphone %v, mbp %v", first, tracks[1].FirstSeen())
	}
	if !(&DeviceTrack{}).FirstSeen().IsZero() {
		t.Fatal("an empty track was seen")
	}
	// Emma must not appear in Brian's tracks.
	for _, tr := range tracks {
		if tr.Device == "emmas-ipad" {
			t.Fatal("emma tracked as brian")
		}
	}
}

func TestEntrySeriesAndWFH(t *testing.T) {
	dates := dataset.DateRange(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2020, 6, 30, 0, 0, 0, 0, time.UTC), 1)
	s := dataset.NewCountSeries(dates)
	p := dnswire.MustPrefix("10.0.1.0/24")
	lockdown := time.Date(2020, 3, 16, 0, 0, 0, 0, time.UTC)
	for i, d := range dates {
		v := 100
		if d.After(lockdown) {
			v = 30
		}
		s.Add(p, i, v)
	}
	// A prefix outside the filter must not contribute.
	s.SetConstant(dnswire.MustPrefix("10.9.1.0/24"), 500)

	totals := EntrySeries(s, []dnswire.Prefix{dnswire.MustPrefix("10.0.0.0/16")})
	if totals.Values[0] != 100 {
		t.Fatalf("day 0 total = %v", totals.Values[0])
	}
	if all := EntrySeries(s, nil); all.Values[0] != 600 {
		t.Fatalf("day 0 total over every prefix = %v", all.Values[0])
	}
	rep := WFH("Academic-X", totals, lockdown)
	if rep.PrePandemicMean < 99 {
		t.Fatalf("pre-pandemic mean = %v", rep.PrePandemicMean)
	}
	if rep.LockdownMean > 35 {
		t.Fatalf("lockdown mean = %v", rep.LockdownMean)
	}
}

func TestCrossover(t *testing.T) {
	dates := dataset.DateRange(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC), 1)
	edu := analysis.Series{Dates: dates, Values: make([]float64, len(dates))}
	housing := analysis.Series{Dates: dates, Values: make([]float64, len(dates))}
	cross := time.Date(2020, 3, 20, 0, 0, 0, 0, time.UTC)
	for i, d := range dates {
		if d.Before(cross) {
			edu.Values[i], housing.Values[i] = 100, 60
		} else {
			edu.Values[i], housing.Values[i] = 40, 90
		}
	}
	rep := Crossover(edu, housing, dates[0], 5)
	if !rep.Crossover.Equal(cross) {
		t.Fatalf("crossover = %v, want %v", rep.Crossover, cross)
	}
}

func TestHeistQuietestHour(t *testing.T) {
	res := &reactive.Results{Hours: map[string][]*reactive.HourCount{}}
	start := epoch // Monday
	for d := 0; d < 7; d++ {
		for h := 0; h < 24; h++ {
			activity := 100
			if h >= 2 && h <= 7 {
				activity = 10
			}
			if h == 6 {
				activity = 2
			}
			res.Hours["Academic-A"] = append(res.Hours["Academic-A"], &reactive.HourCount{
				Hour: start.AddDate(0, 0, d).Add(time.Duration(h) * time.Hour),
				ICMP: activity, RDNS: activity / 2,
			})
		}
	}
	rep := Heist(res, "Academic-A", start, start.AddDate(0, 0, 7))
	if rep.QuietestHourOfDay != 6 {
		t.Fatalf("quietest hour = %d, want 6", rep.QuietestHourOfDay)
	}
	if rep.BusiestHourOfDay == 6 {
		t.Fatal("busiest hour computed as the quietest")
	}
	if len(rep.Hours) != 7*24 {
		t.Fatalf("hours = %d", len(rep.Hours))
	}
}
