package rdnsprivacy_test

import (
	"context"
	"testing"
	"time"

	"rdnsprivacy/internal/dhcp"
	"rdnsprivacy/internal/dhcpwire"
	"rdnsprivacy/internal/dnsserver"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/dynamicity"
	"rdnsprivacy/internal/ipam"
	"rdnsprivacy/internal/names"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/privleak"
	"rdnsprivacy/internal/scan"
	"rdnsprivacy/internal/simclock"
)

// This file holds the ablation benchmarks DESIGN.md calls out: they vary
// one design choice at a time and report what each variant leaks or
// detects, quantifying the paper's Section 8 mitigation discussion.

// BenchmarkAblationIPAMPolicies drives identical client churn through each
// IPAM policy and reports how many given names an outside scanner can
// harvest under each.
func BenchmarkAblationIPAMPolicies(b *testing.B) {
	for _, policy := range []ipam.Policy{
		ipam.PolicyCarryOver, ipam.PolicyHashed, ipam.PolicyStaticForm, ipam.PolicyNone,
	} {
		b.Run(policy.String(), func(b *testing.B) {
			leaked := 0
			for i := 0; i < b.N; i++ {
				leaked = namesLeakedUnder(b, policy)
			}
			b.ReportMetric(float64(leaked), "names-leaked")
		})
	}
}

// namesLeakedUnder runs 40 named clients through one policy and counts
// distinct given names visible in the zone.
func namesLeakedUnder(b *testing.B, policy ipam.Policy) int {
	b.Helper()
	clock := simclock.NewSimulated(time.Date(2021, 11, 1, 9, 0, 0, 0, time.UTC))
	prefix := dnswire.MustPrefix("192.0.2.0/24")
	origin, err := dnswire.ReverseZoneFor24(prefix)
	if err != nil {
		b.Fatal(err)
	}
	zone := dnsserver.NewZone(dnsserver.ZoneConfig{
		Origin:    origin,
		PrimaryNS: dnswire.MustName("ns1.example.com"),
		Mbox:      dnswire.MustName("hostmaster.example.com"),
	})
	updater := ipam.NewUpdater(ipam.Config{
		Policy:      policy,
		Suffix:      dnswire.MustName("dyn.example.com"),
		StaticPools: []dnswire.Prefix{prefix},
	})
	if err := updater.AttachZone(zone); err != nil {
		b.Fatal(err)
	}
	srv := dhcp.NewServer(clock, dhcp.ServerConfig{
		ServerIP:  prefix.Nth(1),
		Pools:     []dnswire.Prefix{prefix},
		LeaseTime: time.Hour,
		Sink:      updater,
	})
	for i := 0; i < 40; i++ {
		owner := names.Top50[i%len(names.Top50)]
		cl := dhcp.NewClient(clock, srv, dhcp.ClientConfig{
			CHAddr:   dhcpwire.HardwareAddr{2, 0, 0, 0, 1, byte(i)},
			HostName: owner + "s-iPhone",
		})
		if _, err := cl.Join(); err != nil {
			b.Fatal(err)
		}
	}
	matcher := names.NewMatcher(names.Top50)
	distinct := map[string]bool{}
	for _, n := range zone.Names() {
		target, ok := zone.LookupPTR(n)
		if !ok {
			continue
		}
		for _, name := range matcher.Match(string(target)) {
			distinct[name] = true
		}
	}
	return len(distinct)
}

// BenchmarkAblationReleaseBehavior compares how long PTR records linger
// after departure for clients that send DHCPRELEASE versus clients that
// vanish silently — the paper's future-work question about release
// behaviour as a defence ("is, instead, not doing so a possible defense
// mechanism?" — it is the opposite: silence makes records linger LONGER).
func BenchmarkAblationReleaseBehavior(b *testing.B) {
	for _, mode := range []struct {
		name    string
		release bool
	}{{"release", true}, {"silent", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var linger time.Duration
			for i := 0; i < b.N; i++ {
				linger = lingerAfterLeave(b, mode.release)
			}
			b.ReportMetric(linger.Minutes(), "linger-minutes")
		})
	}
}

// lingerAfterLeave measures the record lifetime beyond departure for one
// client under a 1h lease.
func lingerAfterLeave(b *testing.B, release bool) time.Duration {
	b.Helper()
	start := time.Date(2021, 11, 1, 9, 0, 0, 0, time.UTC)
	clock := simclock.NewSimulated(start)
	prefix := dnswire.MustPrefix("192.0.2.0/24")
	origin, _ := dnswire.ReverseZoneFor24(prefix)
	zone := dnsserver.NewZone(dnsserver.ZoneConfig{
		Origin:    origin,
		PrimaryNS: dnswire.MustName("ns1.example.com"),
		Mbox:      dnswire.MustName("hostmaster.example.com"),
	})
	updater := ipam.NewUpdater(ipam.Config{
		Policy: ipam.PolicyCarryOver, Suffix: dnswire.MustName("dyn.example.com"),
	})
	updater.AttachZone(zone)
	srv := dhcp.NewServer(clock, dhcp.ServerConfig{
		ServerIP:  prefix.Nth(1),
		Pools:     []dnswire.Prefix{prefix},
		LeaseTime: time.Hour,
		Sink:      updater,
	})
	cl := dhcp.NewClient(clock, srv, dhcp.ClientConfig{
		CHAddr: dhcpwire.HardwareAddr{2, 0, 0, 0, 0, 1}, HostName: "Brians-iPhone",
		SendRelease: release,
	})
	ip, err := cl.Join()
	if err != nil {
		b.Fatal(err)
	}
	// Stay 45 minutes (one renewal at 30m), then leave.
	clock.Advance(45 * time.Minute)
	cl.Leave()
	left := clock.Now()
	rname := dnswire.ReverseName(ip)
	for step := 0; step < 200; step++ {
		if _, ok := zone.LookupPTR(rname); !ok {
			return clock.Now().Sub(left)
		}
		clock.Advance(time.Minute)
	}
	b.Fatal("record never removed")
	return 0
}

// BenchmarkAblationLeaseTime quantifies the paper's explanation for the
// per-network differences in Figure 7b ("can be explained by a longer DHCP
// lease time"): for silent leavers, the PTR lingers in proportion to the
// lease.
func BenchmarkAblationLeaseTime(b *testing.B) {
	for _, lease := range []time.Duration{30 * time.Minute, time.Hour, 2 * time.Hour} {
		b.Run(lease.String(), func(b *testing.B) {
			var linger time.Duration
			for i := 0; i < b.N; i++ {
				linger = lingerAfterLeaveWithLease(b, lease)
			}
			b.ReportMetric(linger.Minutes(), "linger-minutes")
		})
	}
}

// lingerAfterLeaveWithLease measures post-departure record lifetime for a
// silent leaver under the given lease.
func lingerAfterLeaveWithLease(b *testing.B, lease time.Duration) time.Duration {
	b.Helper()
	start := time.Date(2021, 11, 1, 9, 0, 0, 0, time.UTC)
	clock := simclock.NewSimulated(start)
	prefix := dnswire.MustPrefix("192.0.2.0/24")
	origin, _ := dnswire.ReverseZoneFor24(prefix)
	zone := dnsserver.NewZone(dnsserver.ZoneConfig{
		Origin:    origin,
		PrimaryNS: dnswire.MustName("ns1.example.com"),
		Mbox:      dnswire.MustName("hostmaster.example.com"),
	})
	updater := ipam.NewUpdater(ipam.Config{
		Policy: ipam.PolicyCarryOver, Suffix: dnswire.MustName("dyn.example.com"),
	})
	updater.AttachZone(zone)
	srv := dhcp.NewServer(clock, dhcp.ServerConfig{
		ServerIP:  prefix.Nth(1),
		Pools:     []dnswire.Prefix{prefix},
		LeaseTime: lease,
		Sink:      updater,
	})
	cl := dhcp.NewClient(clock, srv, dhcp.ClientConfig{
		CHAddr: dhcpwire.HardwareAddr{2, 0, 0, 0, 0, 1}, HostName: "Brians-iPhone",
		SendRelease: false,
	})
	ip, err := cl.Join()
	if err != nil {
		b.Fatal(err)
	}
	// Stay two full lease periods (several renewals), then vanish.
	clock.Advance(2 * lease)
	cl.Leave()
	left := clock.Now()
	rname := dnswire.ReverseName(ip)
	for step := 0; step < 1000; step++ {
		if _, ok := zone.LookupPTR(rname); !ok {
			return clock.Now().Sub(left)
		}
		clock.Advance(time.Minute)
	}
	b.Fatal("record never removed")
	return 0
}

// BenchmarkAblationScanCadence measures how the scanner's cadence changes
// what the dynamicity heuristic can see: weekly (Rapid7-like) snapshots
// find fewer dynamic prefixes than daily (OpenINTEL-like) ones over the
// same window — the reason the paper prefers OpenINTEL data (Section 3).
func BenchmarkAblationScanCadence(b *testing.B) {
	campus, truth, err := netsim.BuildValidationCampus(9, time.UTC)
	if err != nil {
		b.Fatal(err)
	}
	u := &netsim.Universe{Networks: []*netsim.Network{campus}}
	for _, cad := range []scan.Cadence{scan.Daily, scan.Weekly} {
		b.Run(cad.String(), func(b *testing.B) {
			found := 0
			for i := 0; i < b.N; i++ {
				res := scan.Run(scan.Campaign{
					Universe: u,
					Start:    date(2021, time.January, 1),
					End:      date(2021, time.March, 31),
					Cadence:  cad,
				})
				verdict := dynamicity.Analyze(res.Series, dynamicity.PaperConfig())
				found = len(verdict.DynamicPrefixes)
			}
			b.ReportMetric(float64(found), "dynamic-found")
			b.ReportMetric(float64(len(truth["dynamic"])), "dynamic-truth")
		})
	}
}

// BenchmarkAblationThresholds sweeps the Section 4 thresholds (X, Y) and
// reports the detected dynamic-prefix count at each setting, exposing the
// sensitivity the paper discusses under "Threshold and dynamicity".
func BenchmarkAblationThresholds(b *testing.B) {
	campus, _, err := netsim.BuildValidationCampus(9, time.UTC)
	if err != nil {
		b.Fatal(err)
	}
	u := &netsim.Universe{Networks: []*netsim.Network{campus}}
	res := scan.Run(scan.Campaign{
		Universe: u,
		Start:    date(2021, time.January, 1),
		End:      date(2021, time.March, 31),
		Cadence:  scan.Daily,
	})
	for _, cfg := range []struct {
		name string
		x    float64
		y    int
	}{
		{"X5-Y3", 5, 3},
		{"X10-Y7-paper", 10, 7},
		{"X20-Y14", 20, 14},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			found := 0
			for i := 0; i < b.N; i++ {
				verdict := dynamicity.Analyze(res.Series, dynamicity.Config{
					MinAddresses:  10,
					ChangePercent: cfg.x,
					MinChangeDays: cfg.y,
				})
				found = len(verdict.DynamicPrefixes)
			}
			b.ReportMetric(float64(found), "dynamic-found")
		})
	}
}

// BenchmarkAblationLeakWindow varies how many daily snapshots the Section 5
// analysis unions: longer windows see more distinct names per suffix.
func BenchmarkAblationLeakWindow(b *testing.B) {
	s := benchStudy(b)
	dyn := s.Dynamicity()
	dynSet := make(map[string]bool)
	for _, p := range dyn.DynamicPrefixes {
		dynSet[p.String()] = true
	}
	for _, window := range []int{1, 7} {
		b.Run(map[int]string{1: "1day", 7: "7days"}[window], func(b *testing.B) {
			identified := 0
			for i := 0; i < b.N; i++ {
				a := privleak.NewAnalyzer(s.Cfg.LeakThresholds)
				seen := map[string]bool{}
				for d := 0; d < window; d++ {
					at := s.Cfg.DynamicityEnd.AddDate(0, 0, d-6).Add(13 * time.Hour)
					snap, err := scan.Snapshot(context.Background(), scan.Campaign{Universe: s.Universe}, at)
					if err != nil {
						b.Fatal(err)
					}
					for ip, name := range snap.Records {
						key := ip.String() + "|" + string(name)
						if seen[key] {
							continue
						}
						seen[key] = true
						a.Observe(privleak.RecordObservation{
							IP: ip, HostName: name,
							Dynamic: dynSet[ip.Slash24().String()],
						})
					}
				}
				identified = len(a.Finish().Identified)
			}
			b.ReportMetric(float64(identified), "identified")
		})
	}
}
