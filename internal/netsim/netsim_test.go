package netsim

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"rdnsprivacy/internal/dnsclient"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/icmp"
	"rdnsprivacy/internal/ipam"
	"rdnsprivacy/internal/simclock"
)

// Monday 2021-11-01.
var epoch = time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC)

func TestArchetypeSchedulerDeterminism(t *testing.T) {
	s := NewArchetypeScheduler(Staff, 42, 7)
	a := s.AppendSessions(nil, epoch, 1)
	b := s.AppendSessions(nil, epoch, 1)
	if len(a) != len(b) {
		t.Fatal("same inputs, different session counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("session %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestStaffWeekdayPattern(t *testing.T) {
	// Over many staff devices, a weekday must have far more presence at
	// 11:00 than at 3:00.
	midday, night := 0, 0
	for id := uint64(0); id < 200; id++ {
		s := NewArchetypeScheduler(Staff, id, 1)
		for _, sess := range s.AppendSessions(nil, epoch, 1) {
			if sess.Start <= 11*time.Hour && sess.End > 11*time.Hour {
				midday++
			}
			if sess.Start <= 3*time.Hour && sess.End > 3*time.Hour {
				night++
			}
		}
	}
	if midday < 100 {
		t.Fatalf("only %d/200 staff present at 11:00 on a weekday", midday)
	}
	if night > 5 {
		t.Fatalf("%d/200 staff present at 03:00", night)
	}
}

func TestStaffWeekendMostlyAbsent(t *testing.T) {
	saturday := epoch.AddDate(0, 0, 5)
	present := 0
	for id := uint64(0); id < 200; id++ {
		s := NewArchetypeScheduler(Staff, id, 1)
		if len(s.AppendSessions(nil, saturday, 1)) > 0 {
			present++
		}
	}
	if present > 30 {
		t.Fatalf("%d/200 staff present on Saturday", present)
	}
}

func TestOccupancyScalesPresence(t *testing.T) {
	full, locked := 0, 0
	for id := uint64(0); id < 300; id++ {
		s := NewArchetypeScheduler(Employee, id, 3)
		if len(s.AppendSessions(nil, epoch, 1)) > 0 {
			full++
		}
		if len(s.AppendSessions(nil, epoch, 0.2)) > 0 {
			locked++
		}
	}
	if locked >= full/2 {
		t.Fatalf("lockdown occupancy did not bite: %d vs %d", locked, full)
	}
}

func TestInfraIgnoresOccupancy(t *testing.T) {
	s := NewArchetypeScheduler(Infra, 1, 1)
	sessions := s.AppendSessions(nil, epoch, 0)
	if len(sessions) != 1 || sessions[0].Start != 0 || sessions[0].End != 24*time.Hour {
		t.Fatalf("infra sessions = %v", sessions)
	}
}

func TestScriptedScheduler(t *testing.T) {
	activate := epoch.AddDate(0, 0, 7)
	s := &ScriptedScheduler{
		Weekly: map[time.Weekday][]Session{
			time.Monday: {{9 * time.Hour, 17 * time.Hour}},
		},
		Activate:    activate,
		AbsentDates: map[time.Time]bool{activate.AddDate(0, 0, 7): true},
	}
	if got := s.AppendSessions(nil, epoch, 1); got != nil {
		t.Fatalf("sessions before activation: %v", got)
	}
	if got := s.AppendSessions(nil, activate, 1); len(got) != 1 {
		t.Fatalf("sessions on activation Monday = %v", got)
	}
	if got := s.AppendSessions(nil, activate.AddDate(0, 0, 1), 1); got != nil {
		t.Fatalf("sessions on Tuesday = %v (no script)", got)
	}
	if got := s.AppendSessions(nil, activate.AddDate(0, 0, 7), 1); got != nil {
		t.Fatalf("sessions on absent date = %v", got)
	}
}

func TestTimelinePhases(t *testing.T) {
	loc := time.UTC
	tl := USCampusCOVIDTimeline(loc)
	before := tl.At(date(loc, 2020, time.February, 1))
	if before.Factor(Staff) != 1 {
		t.Fatalf("pre-COVID staff factor = %v", before.Factor(Staff))
	}
	locked := tl.At(date(loc, 2020, time.April, 1))
	if locked.Factor(Staff) >= 0.5 {
		t.Fatalf("lockdown staff factor = %v", locked.Factor(Staff))
	}
	if locked.Factor(Resident) <= 1 {
		t.Fatalf("lockdown resident factor = %v, want > 1", locked.Factor(Resident))
	}
}

func TestCalendarThanksgiving(t *testing.T) {
	loc := time.UTC
	c := USAcademicCalendar(loc)
	// Thanksgiving 2021 fell on November 25.
	th := date(loc, 2021, time.November, 25)
	if f := c.FactorOn(th, Student); f >= 0.5 {
		t.Fatalf("Thanksgiving student factor = %v", f)
	}
	if f := c.FactorOn(th.AddDate(0, 0, 3), Student); f >= 0.5 {
		t.Fatalf("Thanksgiving Sunday student factor = %v", f)
	}
	// Cyber Monday (Nov 29) is back to normal.
	if f := c.FactorOn(date(loc, 2021, time.November, 29), Student); f != 1 {
		t.Fatalf("Cyber Monday factor = %v", f)
	}
	var nilCal *Calendar
	if nilCal.FactorOn(th, Staff) != 1 {
		t.Fatal("nil calendar factor != 1")
	}
	var nilTL *Timeline
	if nilTL.At(th) != nil {
		t.Fatal("nil timeline occupancy != nil")
	}
}

// devices lists the network's devices, block by block.
func devices(n *Network) []*Device {
	var out []*Device
	for _, block := range n.blockDev {
		for i := range block {
			out = append(out, block[i].dev)
		}
	}
	return out
}

// liveRecordCount sums the names across the live zones.
func liveRecordCount(n *Network) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	total := 0
	for _, z := range n.live.zones {
		total += z.Len()
	}
	return total
}

// countRecordsAt returns the number of records visible at t per /24.
func countRecordsAt(n *Network, t time.Time) map[dnswire.Prefix]int {
	counts := make(map[dnswire.Prefix]int)
	n.RecordsAt(t, func(r Record) { counts[r.IP.Slash24()]++ })
	return counts
}

func TestHostNameShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := HostNameFor(KindIPhone, "brian", rng); got != "Brian's iPhone" {
		t.Fatalf("iPhone name = %q", got)
	}
	mbp := HostNameFor(KindMacBookPro, "brian", rng)
	if !strings.HasPrefix(mbp, "Brians-M") {
		t.Fatalf("MBP name = %q", mbp)
	}
	anon := HostNameFor(KindWindowsDesktop, "", rng)
	if !strings.HasPrefix(anon, "DESKTOP-") {
		t.Fatalf("desktop name = %q", anon)
	}
}

func testNetworkConfig() Config {
	return Config{
		Name:      "Academic-T",
		Type:      Academic,
		Suffix:    dnswire.MustName("campus-t.example.edu"),
		Announced: dnswire.MustPrefix("10.50.0.0/16"),
		Blocks: []Block{
			{Kind: BlockDynamic, Prefix: dnswire.MustPrefix("10.50.1.0/24"), Policy: ipam.PolicyCarryOver, SubLabel: "dyn"},
			{Kind: BlockStaticInfra, Prefix: dnswire.MustPrefix("10.50.0.0/24"), SubLabel: "net"},
			{Kind: BlockServers, Prefix: dnswire.MustPrefix("10.50.2.0/24"), SubLabel: "srv"},
			{Kind: BlockDynamic, Prefix: dnswire.MustPrefix("10.50.3.0/24"), Policy: ipam.PolicyStaticForm, SubLabel: "res"},
		},
		LeaseTime: time.Hour,
		Seed:      11,
	}
}

func TestNetworkPopulateAndRecords(t *testing.T) {
	n, err := NewNetwork(testNetworkConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Populate(PopulateSpec{
		Block: 0, People: 20, Archetype: Staff,
		NamedFraction: 1.0, DevicesPerPerson: 2, ReleaseFraction: 0.5,
	}); err != nil {
		t.Fatal(err)
	}
	if len(devices(n)) < 20 {
		t.Fatalf("devices = %d", len(devices(n)))
	}

	// At 11:00 on a weekday, many staff devices should be visible, all
	// under the dyn sublabel, all carrying their owner's name.
	at := epoch.Add(11 * time.Hour)
	var dynRecords []Record
	n.RecordsAt(at, func(r Record) {
		if strings.HasSuffix(string(r.HostName), ".dyn.campus-t.example.edu.") {
			dynRecords = append(dynRecords, r)
		}
	})
	if len(dynRecords) < 10 {
		t.Fatalf("only %d dynamic records at 11:00", len(dynRecords))
	}
	for _, r := range dynRecords {
		if !dnswire.MustPrefix("10.50.1.0/24").Contains(r.IP) {
			t.Fatalf("dynamic record outside its block: %v", r.IP)
		}
	}

	// At 03:00 almost no staff devices remain.
	var nightRecords int
	n.RecordsAt(epoch.Add(3*time.Hour), func(r Record) {
		if strings.HasSuffix(string(r.HostName), ".dyn.campus-t.example.edu.") {
			nightRecords++
		}
	})
	if nightRecords >= len(dynRecords)/2 {
		t.Fatalf("night records %d vs midday %d", nightRecords, len(dynRecords))
	}
}

func TestStaticRecordsConstant(t *testing.T) {
	n, err := NewNetwork(testNetworkConfig())
	if err != nil {
		t.Fatal(err)
	}
	count := func(at time.Time) int {
		c := 0
		n.RecordsAt(at, func(r Record) {
			if !strings.Contains(string(r.HostName), ".dyn.") {
				c++
			}
		})
		return c
	}
	a := count(epoch.Add(4 * time.Hour))
	b := count(epoch.Add(14 * time.Hour))
	if a != b || a == 0 {
		t.Fatalf("static records vary: %d vs %d", a, b)
	}
	// The static-form block contributes its full pool.
	if len(n.staticRec) < 254 {
		t.Fatalf("StaticRecordCount = %d, want >= 254 (res block)", len(n.staticRec))
	}
}

func TestInfraRecordsHaveGenericOrCityTerms(t *testing.T) {
	n, err := NewNetwork(testNetworkConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	n.RecordsAt(epoch, func(r Record) {
		if strings.HasSuffix(string(r.HostName), ".net.campus-t.example.edu.") {
			seen++
		}
	})
	if seen == 0 {
		t.Fatal("no infrastructure records generated")
	}
}

func TestRecordLingeringAfterSilentLeave(t *testing.T) {
	cfg := testNetworkConfig()
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One scripted device: present 09:00-10:00, silent leaver.
	dev := &Device{
		ID: 1, Owner: "brian", Kind: KindIPhone, HostName: "Brian's iPhone",
		MAC: macForID(1), SendRelease: false,
		Schedule: &ScriptedScheduler{Weekly: map[time.Weekday][]Session{
			time.Monday: {{9 * time.Hour, 10 * time.Hour}},
		}},
	}
	if err := n.AddDevice(dev, 0, Student); err != nil {
		t.Fatal(err)
	}
	visible := func(at time.Time) bool {
		found := false
		n.RecordsAt(at, func(r Record) {
			if strings.HasPrefix(string(r.HostName), "brians-iphone.") {
				found = true
			}
		})
		return found
	}
	if visible(epoch.Add(8 * time.Hour)) {
		t.Fatal("record before session")
	}
	if !visible(epoch.Add(9*time.Hour + 30*time.Minute)) {
		t.Fatal("record missing during session")
	}
	// Silent leave at 10:00 with a 1h lease: lingering until 11:00.
	if !visible(epoch.Add(10*time.Hour + 30*time.Minute)) {
		t.Fatal("record did not linger after silent leave")
	}
	if visible(epoch.Add(11*time.Hour + 5*time.Minute)) {
		t.Fatal("record still present after lease expiry window")
	}

	// A releasing device disappears immediately.
	dev.SendRelease = true
	if visible(epoch.Add(10*time.Hour + 30*time.Minute)) {
		t.Fatal("record lingered for a releasing client")
	}
}

func TestLiveModeEndToEnd(t *testing.T) {
	cfg := testNetworkConfig()
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := &Device{
		ID: 1, Owner: "brian", Kind: KindIPhone, HostName: "Brian's iPhone",
		MAC: macForID(1), SendRelease: false,
		Schedule: &ScriptedScheduler{Weekly: map[time.Weekday][]Session{
			time.Monday: {{9 * time.Hour, 10 * time.Hour}},
		}},
	}
	if err := n.AddDevice(dev, 0, Student); err != nil {
		t.Fatal(err)
	}
	devIP, _ := n.DeviceIP(dev)

	clock := simclock.NewSimulated(epoch.Add(8 * time.Hour))
	fab := fabric.New(clock, fabric.Config{Latency: 10 * time.Millisecond})
	if err := n.Start(fab); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()

	res, err := dnsclient.NewResolver(fab,
		dnsclient.WithBind(fabric.Addr{IP: dnswire.MustIPv4("198.51.100.1"), Port: 40000}),
		dnsclient.WithServer(n.DNSAddr()))
	if err != nil {
		t.Fatal(err)
	}
	prober, err := icmp.NewProber(fab, icmp.ProberConfig{
		Vantage: dnswire.MustIPv4("198.51.100.2"),
	})
	if err != nil {
		t.Fatal(err)
	}

	lookup := func() dnsclient.Response {
		var got dnsclient.Response
		res.LookupPTR(context.Background(), devIP, func(r dnsclient.Response) { got = r })
		clock.Advance(5 * time.Second)
		return got
	}
	ping := func() bool {
		alive := false
		prober.Probe(devIP, func(r icmp.ProbeResult) { alive = r.Alive })
		clock.Advance(5 * time.Second)
		return alive
	}

	// 08:00: before the session.
	if r := lookup(); r.Outcome != dnsclient.OutcomeNXDomain {
		t.Fatalf("08:00 outcome = %v, want NXDOMAIN", r.Outcome)
	}
	if ping() {
		t.Fatal("08:00: device answered ping before joining")
	}

	// Advance into the session (09:05).
	clock.AdvanceTo(epoch.Add(9*time.Hour + 5*time.Minute))
	if !ping() {
		t.Fatal("09:05: device not pingable")
	}
	r := lookup()
	if r.Outcome != dnsclient.OutcomeSuccess {
		t.Fatalf("09:05 outcome = %v, want NOERROR", r.Outcome)
	}
	if r.PTR != dnswire.MustName("brians-iphone.dyn.campus-t.example.edu") {
		t.Fatalf("09:05 PTR = %q", r.PTR)
	}

	// 10:10: silent leave happened at 10:00; no ping, record lingers.
	clock.AdvanceTo(epoch.Add(10*time.Hour + 10*time.Minute))
	if ping() {
		t.Fatal("10:10: device still pingable after leave")
	}
	if r := lookup(); r.Outcome != dnsclient.OutcomeSuccess {
		t.Fatalf("10:10 outcome = %v, want lingering NOERROR", r.Outcome)
	}

	// 11:40: lease has expired (renewed at 09:35, expiry 10:35 at the
	// latest); the record must be gone.
	clock.AdvanceTo(epoch.Add(11*time.Hour + 40*time.Minute))
	if r := lookup(); r.Outcome != dnsclient.OutcomeNXDomain {
		t.Fatalf("11:40 outcome = %v, want NXDOMAIN after expiry", r.Outcome)
	}
}

func TestLiveModeBlockedICMP(t *testing.T) {
	cfg := testNetworkConfig()
	cfg.BlockICMP = true
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := &Device{
		ID: 1, Owner: "emma", Kind: KindIPad, HostName: "Emma's iPad",
		MAC: macForID(1),
		Schedule: &ScriptedScheduler{Weekly: map[time.Weekday][]Session{
			time.Monday: {{9 * time.Hour, 17 * time.Hour}},
		}},
	}
	n.AddDevice(dev, 0, Student)
	devIP, _ := n.DeviceIP(dev)

	clock := simclock.NewSimulated(epoch.Add(10 * time.Hour))
	fab := fabric.New(clock, fabric.Config{Latency: time.Millisecond})
	if err := n.Start(fab); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	clock.Advance(time.Minute)

	prober, err := icmp.NewProber(fab, icmp.ProberConfig{
		Vantage: dnswire.MustIPv4("198.51.100.2"), Timeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	alive := false
	done := false
	prober.Probe(devIP, func(r icmp.ProbeResult) { alive = r.Alive; done = true })
	clock.Advance(10 * time.Second)
	if !done {
		t.Fatal("probe never completed")
	}
	if alive {
		t.Fatal("ICMP-blocking network answered a ping")
	}

	// But the PTR record is still there for anyone to query — the
	// paper's key point about ICMP blocking being insufficient.
	res, err := dnsclient.NewResolver(fab,
		dnsclient.WithBind(fabric.Addr{IP: dnswire.MustIPv4("198.51.100.1"), Port: 40000}),
		dnsclient.WithServer(n.DNSAddr()))
	if err != nil {
		t.Fatal(err)
	}
	var got dnsclient.Response
	res.LookupPTR(context.Background(), devIP, func(r dnsclient.Response) { got = r })
	clock.Advance(5 * time.Second)
	if got.Outcome != dnsclient.OutcomeSuccess {
		t.Fatalf("PTR outcome = %v; rDNS must remain visible when ICMP is blocked", got.Outcome)
	}
}

func TestLiveSnapshotAgreementWhileOnline(t *testing.T) {
	// While devices are online (no lingering in play), live zone content
	// and snapshot evaluation must agree exactly.
	cfg := testNetworkConfig()
	n, err := NewNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Populate(PopulateSpec{
		Block: 0, People: 15, Archetype: Infra, // always online: no timing edges
		NamedFraction: 1, DevicesPerPerson: 1, ReleaseFraction: 1,
	}); err != nil {
		t.Fatal(err)
	}
	clock := simclock.NewSimulated(epoch.Add(8 * time.Hour))
	fab := fabric.New(clock, fabric.Config{})
	if err := n.Start(fab); err != nil {
		t.Fatal(err)
	}
	defer n.Stop()
	clock.Advance(time.Hour)

	snapshot := make(map[dnswire.IPv4]dnswire.Name)
	n.RecordsAt(clock.Now(), func(r Record) { snapshot[r.IP] = r.HostName })

	live := make(map[dnswire.IPv4]dnswire.Name)
	for _, b := range n.cfg.Blocks {
		for i := 0; i < b.Prefix.NumAddresses(); i++ {
			ip := b.Prefix.Nth(i)
			origin, err := dnswire.ReverseZoneFor24(ip.Slash24())
			if err != nil {
				t.Fatal(err)
			}
			if z := n.live.zones[origin]; z != nil {
				if target, ok := z.LookupPTR(dnswire.ReverseName(ip)); ok {
					live[ip] = target
				}
			}
		}
	}
	if names := liveRecordCount(n); names != len(live) {
		t.Fatalf("live zones hold %d names, %d of them PTRs of the network's addresses", names, len(live))
	}
	if len(snapshot) != len(live) {
		t.Fatalf("snapshot %d records, live %d", len(snapshot), len(live))
	}
	for ip, name := range snapshot {
		if live[ip] != name {
			t.Fatalf("disagreement at %v: snapshot %q, live %q", ip, name, live[ip])
		}
	}
}

func TestNetworkRejectsBlockOutsideAnnounced(t *testing.T) {
	cfg := testNetworkConfig()
	cfg.Blocks = append(cfg.Blocks, Block{
		Kind: BlockDynamic, Prefix: dnswire.MustPrefix("10.99.0.0/24"),
	})
	if _, err := NewNetwork(cfg); err == nil {
		t.Fatal("block outside announced prefix accepted")
	}
}

func TestNetworkTypeStrings(t *testing.T) {
	for ty, want := range map[NetworkType]string{
		Academic: "academic", ISP: "isp", Enterprise: "enterprise",
		Government: "government", Other: "other",
	} {
		if ty.String() != want {
			t.Fatalf("%d.String() = %q", int(ty), ty.String())
		}
	}
}
