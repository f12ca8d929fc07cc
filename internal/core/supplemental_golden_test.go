package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"testing"
	"time"

	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/icmp"
	"rdnsprivacy/internal/reactive"
)

// supplementalLedger hashes everything one supplemental run reports about
// itself: every activity group in the order the engine closed it, the
// Table 5 funnel, the Table 3/4 totals, the per-day and per-hour counters,
// and the traffic counters of the fabric and the prober underneath.
func supplementalLedger(res *reactive.Results, fs fabric.Stats, ps icmp.ProberStats) uint64 {
	h := fnv.New64a()
	stamp := func(t time.Time) int64 {
		if t.IsZero() {
			return -1
		}
		return t.UnixNano()
	}
	for _, g := range res.Groups {
		fmt.Fprintf(h, "g %d %s %s %d %d %d %d %q %q %t %t %t %t %t\n",
			g.ID, g.Network, g.IP, stamp(g.Start), stamp(g.LastAlive), stamp(g.PTRRemovedAt),
			g.DetectGap, g.FirstPTR, g.LastPTR, g.PTRSeen, g.Reverted, g.Complete, g.ReliableTiming, g.Interrupted)
	}
	fmt.Fprintf(h, "funnel %+v open %d\n", res.Funnel(), res.OpenGroups)
	fmt.Fprintf(h, "totals %d %d %d %d %d\n",
		res.ICMPResponses, res.RDNSResponses, res.ICMPUniqueIPs, res.RDNSUniqueIPs, res.RDNSUniquePTRs)
	writeSorted(h, "alive", res.PerNetworkAlive, func(n int) string { return fmt.Sprint(n) })
	for _, d := range res.Days {
		fmt.Fprintf(h, "day %d %d %d %d %d %d\n", stamp(d.Day), d.UniqueIPs, d.NXDomain, d.ServFail, d.Timeout, d.OKResponse)
	}
	writeSorted(h, "hours", res.Hours, func(hs []*reactive.HourCount) string {
		s := ""
		for _, hc := range hs {
			s += fmt.Sprintf(" %d:%d:%d", stamp(hc.Hour), hc.ICMP, hc.RDNS)
		}
		return s
	})
	fmt.Fprintf(h, "fabric %+v\nprober %+v\n", fs, ps)
	return h.Sum64()
}

func writeSorted[V any](w io.Writer, label string, m map[string]V, show func(V) string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %s %s\n", label, k, show(m[k]))
	}
}

// TestSupplementalLedgerGolden pins the Section 6 live run — packet by
// packet on fabric and simclock — to the ledger it produced at the commit
// before the clock's event queue and the prober's timeout handling were
// rewritten (PR 22's tree). The order in which the clock fires events is
// the contract: a single pair of same-instant events swapped changes which
// jitter draw a later datagram gets, and with it group boundaries and
// removal instants. A difference here is a change of behaviour.
func TestSupplementalLedgerGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three live supplemental windows")
	}
	for _, tc := range []struct {
		seed   uint64
		ledger uint64
		groups int
		fabric fabric.Stats
		prober icmp.ProberStats
	}{
		{seed: 3, ledger: 0x2448cce4c3dab53f, groups: 2098,
			fabric: fabric.Stats{DatagramsSent: 16162, DatagramsDelivered: 16162, ICMPSent: 1189127, ICMPDelivered: 1180167},
			prober: icmp.ProberStats{Sent: 1131763, Received: 57364}},
		{seed: 11, ledger: 0x4350f0cd2c995332, groups: 2024,
			fabric: fabric.Stats{DatagramsSent: 14423, DatagramsDelivered: 14423, ICMPSent: 1187159, ICMPDelivered: 1178199},
			prober: icmp.ProberStats{Sent: 1130794, Received: 56365}},
		{seed: 42, ledger: 0xc128ac13e5c0e434, groups: 2020,
			fabric: fabric.Stats{DatagramsSent: 15288, DatagramsDelivered: 15288, ICMPSent: 1189893, ICMPDelivered: 1180933},
			prober: icmp.ProberStats{Sent: 1131850, Received: 58043}},
	} {
		cfg := tinyConfig()
		cfg.Seed = tc.seed
		// Monday to Saturday of Thanksgiving week: weekday and holiday
		// occupancy, and long enough for leases to lapse and the back-off
		// to reach its hourly steps.
		cfg.SupplementalStart = date(2021, time.November, 22)
		cfg.SupplementalEnd = date(2021, time.November, 27)
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, fs, ps := s.runSupplemental()
		if got := supplementalLedger(res, fs, ps); got != tc.ledger || len(res.Groups) != tc.groups || fs != tc.fabric || ps != tc.prober {
			t.Errorf("seed %d: ledger %#016x groups %d\n  fabric %+v\n  prober %+v\nwant ledger %#016x groups %d\n  fabric %+v\n  prober %+v",
				tc.seed, got, len(res.Groups), fs, ps, tc.ledger, tc.groups, tc.fabric, tc.prober)
		}
	}
}
