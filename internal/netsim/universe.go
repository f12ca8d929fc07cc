package netsim

import (
	"fmt"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/ipam"
	"rdnsprivacy/internal/names"
	"rdnsprivacy/internal/telemetry"
)

// FillerKind selects the record style of a filler /24.
type FillerKind int

// Filler kinds.
const (
	// FillerISPStatic is a fixed-form subscriber pool.
	FillerISPStatic FillerKind = iota
	// FillerInfra is router infrastructure with location terms.
	FillerInfra
	// FillerVanity is a hosting/home-server block where some hostnames
	// carry personal names — static records that give Figure 2 its
	// unfiltered (blue) matches outside dynamic networks.
	FillerVanity
)

// FillerBlock is a /24 whose reverse-DNS content never changes. The scaled
// universe contains tens of thousands of them; they are generated on the
// fly rather than stored.
type FillerBlock struct {
	Prefix  dnswire.Prefix
	Suffix  dnswire.Name
	Kind    FillerKind
	Density float64
	Seed    uint64

	count int // cached record count, -1 until computed
}

// Records emits the block's records, deterministically.
func (f *FillerBlock) Records(emit func(Record)) {
	n := f.Prefix.NumAddresses()
	vanityNames := append(append([]string(nil), names.Top50...), names.Extra...)
	for i := 1; i < n-1; i++ {
		ip := f.Prefix.Nth(i)
		h := hash64(f.Seed, uint64(ip.Uint32()), 0xF1)
		if telemetry.UnitFloat(h) >= f.Density {
			continue
		}
		var label string
		switch f.Kind {
		case FillerISPStatic:
			label = fmt.Sprintf("static-%d-%d-%d-%d", ip[0], ip[1], ip[2], ip[3])
		case FillerInfra:
			cities := names.CityNames
			label = fmt.Sprintf("ge-%d-%d.core%d.%s", h>>8%4, h>>12%8, h>>16%4+1,
				cities[h>>20%uint64(len(cities))])
		case FillerVanity:
			if telemetry.UnitFloat(hash64(h, 1)) < 0.3 {
				owner := vanityNames[h>>24%uint64(len(vanityNames))]
				label = fmt.Sprintf("%s.home", owner)
			} else {
				label = fmt.Sprintf("host-%d-%d", ip[2], ip[3])
			}
		}
		name, err := dnswire.ParseName(label + "." + string(f.Suffix))
		if err != nil {
			continue
		}
		emit(Record{IP: ip, HostName: name})
	}
}

// Count returns the number of records in the block (cached after first
// call).
func (f *FillerBlock) Count() int {
	if f.count > 0 {
		return f.count
	}
	c := 0
	f.Records(func(Record) { c++ })
	f.count = c
	return c
}

// UniverseConfig scales the study universe. The defaults produce the
// 1/100-scale universe documented in DESIGN.md.
type UniverseConfig struct {
	// Seed drives all generation.
	Seed uint64
	// Location is the study timezone (default UTC).
	Location *time.Location
	// FillerSlash24s is the number of static filler /24s (default
	// 60000, approximating the paper's 6.15M at 1/100 scale).
	FillerSlash24s int
	// LeakyNetworks is the number of networks that carry client names
	// into rDNS (default 197, matching the paper's identified set).
	LeakyNetworks int
	// NonLeakyDynamic is the number of dynamic-but-not-leaking networks
	// (hashed or sparsely named), default 55.
	NonLeakyDynamic int
	// PeoplePerDynamicBlock scales population (default 55 people, each
	// with 1-3 devices, so ~110 devices per /24).
	PeoplePerDynamicBlock int
}

func (c *UniverseConfig) fillDefaults() {
	if c.Location == nil {
		c.Location = time.UTC
	}
	if c.FillerSlash24s == 0 {
		c.FillerSlash24s = 60000
	}
	if c.LeakyNetworks == 0 {
		c.LeakyNetworks = 197
	}
	if c.NonLeakyDynamic == 0 {
		c.NonLeakyDynamic = 55
	}
	if c.PeoplePerDynamicBlock == 0 {
		c.PeoplePerDynamicBlock = 55
	}
}

// Universe is the complete simulated address space under study.
type Universe struct {
	Cfg      UniverseConfig
	Networks []*Network
	Filler   []*FillerBlock

	byName map[string]*Network
}

// NetworkByName returns a network by its report name.
func (u *Universe) NetworkByName(name string) (*Network, bool) {
	n, ok := u.byName[name]
	return n, ok
}

// SupplementalNames lists the nine networks selected for supplemental
// measurement, in Table 4 order.
func SupplementalNames() []string {
	return []string{
		"Academic-A", "Academic-B", "Academic-C",
		"Enterprise-A", "Enterprise-B", "Enterprise-C",
		"ISP-A", "ISP-B", "ISP-C",
	}
}

// BuildStudyUniverse constructs the scaled universe: the nine supplemental
// networks with their Table 4 properties, the remaining leaky networks with
// the Figure 4 type mix, non-leaking dynamic networks, and static filler.
func BuildStudyUniverse(cfg UniverseConfig) (*Universe, error) {
	cfg.fillDefaults()
	u := &Universe{Cfg: cfg, byName: make(map[string]*Network)}
	alloc := newAddressAllocator()

	// The nine supplemental networks come first so their addresses are
	// stable regardless of scale knobs.
	nine, err := buildSupplementalNetworks(cfg, alloc)
	if err != nil {
		return nil, err
	}
	u.Networks = append(u.Networks, nine...)

	// Remaining leaky networks in the Figure 4 type mix: 62% academic,
	// 15% ISP, 11% other, 9% enterprise, 3% government. The nine above
	// already contribute 3 academic, 3 enterprise, 3 ISP.
	mix := []struct {
		ty    NetworkType
		share float64
	}{
		{Academic, 0.62}, {ISP, 0.15}, {Other, 0.11},
		{Enterprise, 0.09}, {Government, 0.03},
	}
	have := map[NetworkType]int{Academic: 3, Enterprise: 3, ISP: 3}
	idx := 0
	for _, m := range mix {
		want := int(float64(cfg.LeakyNetworks)*m.share + 0.5)
		for have[m.ty] < want {
			n, err := buildLeakyNetwork(cfg, alloc, m.ty, idx)
			if err != nil {
				return nil, err
			}
			u.Networks = append(u.Networks, n)
			have[m.ty]++
			idx++
		}
	}

	// Dynamic but not leaking: hashed policies.
	for i := 0; i < cfg.NonLeakyDynamic; i++ {
		n, err := buildHashedNetwork(cfg, alloc, i)
		if err != nil {
			return nil, err
		}
		u.Networks = append(u.Networks, n)
	}

	for _, n := range u.Networks {
		u.byName[n.Name()] = n
	}

	// Filler: everything else, up to the target /24 count.
	used := 0
	for _, n := range u.Networks {
		used += len(n.cfg.Announced.Slash24s())
	}
	kinds := []FillerKind{FillerISPStatic, FillerISPStatic, FillerISPStatic, FillerInfra, FillerVanity}
	for i := 0; used+i < cfg.FillerSlash24s; i++ {
		p := alloc.nextSlash24()
		kind := kinds[hash64(cfg.Seed, uint64(i), 0xFB)%uint64(len(kinds))]
		density := 0.12 + telemetry.UnitFloat(hash64(cfg.Seed, uint64(i), 0xFC))*0.5
		suffix := fillerSuffix(kind, i)
		u.Filler = append(u.Filler, &FillerBlock{
			Prefix:  p,
			Suffix:  suffix,
			Kind:    kind,
			Density: density,
			Seed:    hash64(cfg.Seed, uint64(i), 0xFD),
		})
	}
	return u, nil
}

func fillerSuffix(kind FillerKind, i int) dnswire.Name {
	switch kind {
	case FillerInfra:
		return dnswire.Name(fmt.Sprintf("transit-%d.net.", i%97))
	case FillerVanity:
		return dnswire.Name(fmt.Sprintf("hosting-%d.com.", i%53))
	default:
		return dnswire.Name(fmt.Sprintf("pool.isp-fill-%d.net.", i%211))
	}
}

// addressAllocator hands out address space from 10.0.0.0/8 and then
// 100.64.0.0/10 and 172.16.0.0/12, /24 by /24 or in aligned larger chunks.
type addressAllocator struct {
	next uint32
}

func newAddressAllocator() *addressAllocator {
	return &addressAllocator{next: dnswire.MustIPv4("10.0.0.0").Uint32()}
}

// alloc returns an aligned prefix of the given size.
func (a *addressAllocator) alloc(bits int) dnswire.Prefix {
	size := uint32(1) << (32 - bits)
	// Align.
	if rem := a.next % size; rem != 0 {
		a.next += size - rem
	}
	p := dnswire.Prefix{Addr: dnswire.IPv4FromUint32(a.next), Bits: bits}
	a.next += size
	return p
}

func (a *addressAllocator) nextSlash24() dnswire.Prefix { return a.alloc(24) }

// buildSupplementalNetworks constructs the nine networks of Table 4 with
// their observed properties: sizes, ICMP blocking, lease times, and (for
// Academic-A) planted Brian devices for the Figure 8 case study.
func buildSupplementalNetworks(cfg UniverseConfig, alloc *addressAllocator) ([]*Network, error) {
	loc := cfg.Location
	var out []*Network

	// Academic-A: US campus with housing, ICMP open, 1h leases. The
	// Life-of-Brian(s) case study runs here.
	academicA, err := buildCampus(campusSpec{
		cfg: cfg, alloc: alloc, name: "Academic-A",
		suffix:   "campus-a.edu",
		timeline: USCampusCOVIDTimeline(loc), calendar: USAcademicCalendar(loc),
		eduBlocks: 4, housingBlocks: 2, lease: time.Hour,
		excludeName: "brian",
	})
	if err != nil {
		return nil, err
	}
	if err := plantBrians(academicA, loc); err != nil {
		return nil, err
	}
	if err := plantRoamingBrian(academicA, loc); err != nil {
		return nil, err
	}
	out = append(out, academicA)

	// Academic-B: ICMP blocked except for two PTR-less static hosts;
	// longer leases, marked recovery after first lockdown (Figure 9).
	academicB, err := buildCampus(campusSpec{
		cfg: cfg, alloc: alloc, name: "Academic-B",
		suffix:   "campus-b.edu",
		timeline: USCampusCOVIDTimeline(loc), calendar: USAcademicCalendar(loc),
		eduBlocks: 4, housingBlocks: 1, lease: 2 * time.Hour,
		blockICMP: true,
	})
	if err != nil {
		return nil, err
	}
	out = append(out, academicB)

	// Academic-C: the authors' home (EU) institution; education vs
	// housing crossover of Figure 10.
	academicC, err := buildCampus(campusSpec{
		cfg: cfg, alloc: alloc, name: "Academic-C",
		suffix:   "campus-c.ac.nl",
		timeline: EUCampusCOVIDTimeline(loc), calendar: EUAcademicCalendar(loc),
		eduBlocks: 4, housingBlocks: 2, lease: time.Hour,
	})
	if err != nil {
		return nil, err
	}
	out = append(out, academicC)

	// Enterprises: A answers pings, B and C block them. B and C show the
	// March/April 2021 WFH drop (Figure 9); B partially recovers.
	for i, sp := range []struct {
		name      string
		blockICMP bool
		partial   bool
	}{
		{"Enterprise-A", false, false},
		{"Enterprise-B", true, true},
		{"Enterprise-C", true, false},
	} {
		n, err := buildEnterprise(cfg, alloc, sp.name, i, sp.blockICMP, sp.partial)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}

	// ISPs: responsiveness varies with how many subscribers are online.
	for i, sp := range []struct {
		name    string
		density float64 // fraction of pool with active subscribers
	}{
		{"ISP-A", 0.5},
		{"ISP-B", 0.03},
		{"ISP-C", 0.06},
	} {
		exclude := ""
		if sp.name == "ISP-A" {
			exclude = "brian"
		}
		n, err := buildISP(cfg, alloc, sp.name, i, sp.density, exclude)
		if err != nil {
			return nil, err
		}
		if sp.name == "ISP-A" {
			// Cross-network tracking subject (Section 1: "might even
			// be able to track clients across multiple networks"):
			// the laptop that shows up on campus around noon
			// (plantBrians' Brians-MBP on Academic-A) spends its
			// evenings on a residential ISP-A line.
			if err := plantHomeMBP(n, loc); err != nil {
				return nil, err
			}
		}
		out = append(out, n)
	}
	return out, nil
}

// plantHomeMBP places a Brians-MBP on an ISP's first dynamic block with an
// evening/weekend home schedule, mirroring the campus device of the same
// name.
func plantHomeMBP(n *Network, loc *time.Location) error {
	_ = loc
	weekly := map[time.Weekday][]Session{}
	for _, wd := range []time.Weekday{time.Monday, time.Tuesday, time.Wednesday, time.Thursday, time.Friday} {
		weekly[wd] = []Session{{18 * time.Hour, 23*time.Hour + 30*time.Minute}}
	}
	weekly[time.Saturday] = []Session{{10 * time.Hour, 23 * time.Hour}}
	weekly[time.Sunday] = []Session{{10 * time.Hour, 22 * time.Hour}}
	blockIdx := -1
	for bi, b := range n.cfg.Blocks {
		if b.Kind == BlockDynamic && b.Policy == ipam.PolicyCarryOver {
			blockIdx = bi
			break
		}
	}
	if blockIdx < 0 {
		return fmt.Errorf("netsim: %s has no dynamic block", n.Name())
	}
	id := hash64(hashString(n.Name()), hashString("Brians-MBP"), 0xCB)
	dev := &Device{
		ID: id, Owner: "brian", Kind: KindMacBookPro, HostName: "Brians-MBP",
		MAC: macForID(id), SendRelease: true,
		Schedule: &ScriptedScheduler{Weekly: weekly},
	}
	return n.AddDevice(dev, blockIdx, HomeUser)
}

type campusSpec struct {
	cfg           UniverseConfig
	alloc         *addressAllocator
	name          string
	suffix        string
	timeline      *Timeline
	calendar      *Calendar
	eduBlocks     int
	housingBlocks int
	lease         time.Duration
	blockICMP     bool
	// excludeName keeps a given name out of the random population, so a
	// scripted device (the planted Brians of Figure 8) is not shadowed
	// by a random namesake.
	excludeName string
}

// buildCampus constructs an academic network: education dynamic blocks
// (staff+students), housing dynamic blocks (residents), a static-form
// block, infrastructure, and servers.
func buildCampus(sp campusSpec) (*Network, error) {
	announced := sp.alloc.alloc(18) // 64 /24s
	var blocks []Block
	sub := announced.Slash24s()
	bi := 0
	take := func() dnswire.Prefix { p := sub[bi]; bi++; return p }

	eduBuildings := []string{"library", "engineering-hall", "science-center", "admin-building", "lecture-hall"}
	housingBuildings := []string{"dorm-west", "dorm-east", "dorm-north"}
	blocks = append(blocks, Block{Kind: BlockStaticInfra, Prefix: take(), SubLabel: "net"})
	blocks = append(blocks, Block{Kind: BlockServers, Prefix: take(), SubLabel: "srv"})
	eduStart := len(blocks)
	for i := 0; i < sp.eduBlocks; i++ {
		blocks = append(blocks, Block{
			Kind: BlockDynamic, Prefix: take(),
			Policy: ipam.PolicyCarryOver, SubLabel: "edu",
			Building: eduBuildings[i%len(eduBuildings)],
		})
	}
	housingStart := len(blocks)
	for i := 0; i < sp.housingBlocks; i++ {
		blocks = append(blocks, Block{
			Kind: BlockDynamic, Prefix: take(),
			Policy: ipam.PolicyCarryOver, SubLabel: "housing",
			Building: housingBuildings[i%len(housingBuildings)],
		})
	}
	blocks = append(blocks, Block{
		Kind: BlockStaticInfra, Prefix: take(), SubLabel: "labs", Density: 0.3,
	})

	n, err := NewNetwork(Config{
		Name: sp.name, Type: Academic,
		Suffix:    dnswire.MustName(sp.suffix),
		Announced: announced,
		Blocks:    blocks,
		LeaseTime: sp.lease,
		BlockICMP: sp.blockICMP,
		Timeline:  sp.timeline,
		Calendar:  sp.calendar,
		Location:  sp.cfg.Location,
		Seed:      hash64(sp.cfg.Seed, hashString(sp.name)),
	})
	if err != nil {
		return nil, err
	}
	people := sp.cfg.PeoplePerDynamicBlock
	pool := defaultNamePool()
	if sp.excludeName != "" {
		kept := pool[:0]
		for _, n := range pool {
			if n != sp.excludeName {
				kept = append(kept, n)
			}
		}
		pool = kept
	}
	for i := 0; i < sp.eduBlocks; i++ {
		arch := Staff
		if i%2 == 1 {
			arch = Student
		}
		if err := n.Populate(PopulateSpec{
			Block: eduStart + i, People: people, Archetype: arch,
			NamedFraction: 0.6, DevicesPerPerson: 2, ReleaseFraction: 0.75,
			NamePool: pool,
		}); err != nil {
			return nil, err
		}
	}
	housingPeople := people * 2 / 3
	if housingPeople < 3 {
		housingPeople = 3
	}
	for i := 0; i < sp.housingBlocks; i++ {
		if err := n.Populate(PopulateSpec{
			Block: housingStart + i, People: housingPeople, Archetype: Resident,
			NamedFraction: 0.65, DevicesPerPerson: 3, ReleaseFraction: 0.7,
			NamePool: pool,
		}); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// EducationHousingSplit returns the /24 sets of a campus's education and
// housing blocks, for the Figure 10 subnet-level analysis.
func EducationHousingSplit(n *Network) (edu, housing []dnswire.Prefix) {
	for _, b := range n.cfg.Blocks {
		switch b.SubLabel {
		case "edu":
			edu = append(edu, b.Prefix.Slash24s()...)
		case "housing":
			housing = append(housing, b.Prefix.Slash24s()...)
		}
	}
	return edu, housing
}

// buildEnterprise constructs an enterprise network: employee dynamic
// blocks, servers, infrastructure.
func buildEnterprise(cfg UniverseConfig, alloc *addressAllocator, name string, idx int, blockICMP, partialRecovery bool) (*Network, error) {
	announced := alloc.alloc(20) // 16 /24s
	sub := announced.Slash24s()
	blocks := []Block{
		{Kind: BlockStaticInfra, Prefix: sub[0], SubLabel: "net"},
		{Kind: BlockServers, Prefix: sub[1], SubLabel: "dc"},
		{Kind: BlockDynamic, Prefix: sub[2], Policy: ipam.PolicyCarryOver, SubLabel: "corp"},
		{Kind: BlockDynamic, Prefix: sub[3], Policy: ipam.PolicyCarryOver, SubLabel: "corp"},
		{Kind: BlockDynamic, Prefix: sub[4], Policy: ipam.PolicyCarryOver, SubLabel: "corp"},
	}
	n, err := NewNetwork(Config{
		Name: name, Type: Enterprise,
		Suffix:    dnswire.MustName(fmt.Sprintf("corp-%c.com", 'a'+idx)),
		Announced: announced,
		Blocks:    blocks,
		LeaseTime: time.Hour,
		BlockICMP: blockICMP,
		Timeline:  EnterpriseCOVIDTimeline(cfg.Location, partialRecovery),
		Location:  cfg.Location,
		Seed:      hash64(cfg.Seed, hashString(name)),
	})
	if err != nil {
		return nil, err
	}
	for b := 2; b <= 4; b++ {
		if err := n.Populate(PopulateSpec{
			Block: b, People: cfg.PeoplePerDynamicBlock, Archetype: Employee,
			NamedFraction: 0.55, DevicesPerPerson: 2, ReleaseFraction: 0.75,
		}); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// buildISP constructs an ISP access network: home-user dynamic pools plus a
// large static pool. density scales how many subscribers are active, which
// drives the observed-address percentages of Table 4.
func buildISP(cfg UniverseConfig, alloc *addressAllocator, name string, idx int, density float64, excludeName string) (*Network, error) {
	announced := alloc.alloc(19) // 32 /24s
	sub := announced.Slash24s()
	blocks := []Block{
		{Kind: BlockStaticInfra, Prefix: sub[0], SubLabel: "net"},
		{Kind: BlockStaticPool, Prefix: sub[1], SubLabel: "static"},
		{Kind: BlockStaticPool, Prefix: sub[2], SubLabel: "static"},
		{Kind: BlockDynamic, Prefix: sub[3], Policy: ipam.PolicyCarryOver, SubLabel: "dyn"},
		{Kind: BlockDynamic, Prefix: sub[4], Policy: ipam.PolicyCarryOver, SubLabel: "dyn"},
		{Kind: BlockDynamic, Prefix: sub[5], Policy: ipam.PolicyCarryOver, SubLabel: "dyn"},
	}
	n, err := NewNetwork(Config{
		Name: name, Type: ISP,
		Suffix:    dnswire.MustName(fmt.Sprintf("isp-%c.net", 'a'+idx)),
		Announced: announced,
		Blocks:    blocks,
		LeaseTime: time.Hour,
		Timeline:  nil,
		Location:  cfg.Location,
		Seed:      hash64(cfg.Seed, hashString(name)),
	})
	if err != nil {
		return nil, err
	}
	people := int(float64(cfg.PeoplePerDynamicBlock) * 2 * density)
	if people < 3 {
		people = 3
	}
	pool := defaultNamePool()
	if excludeName != "" {
		kept := pool[:0]
		for _, nm := range pool {
			if nm != excludeName {
				kept = append(kept, nm)
			}
		}
		pool = kept
	}
	for b := 3; b <= 5; b++ {
		if err := n.Populate(PopulateSpec{
			Block: b, People: people, Archetype: HomeUser,
			NamedFraction: 0.5, DevicesPerPerson: 3, ReleaseFraction: 0.6,
			NamePool: pool,
		}); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// buildLeakyNetwork constructs one of the remaining identified networks
// with the given type.
func buildLeakyNetwork(cfg UniverseConfig, alloc *addressAllocator, ty NetworkType, idx int) (*Network, error) {
	var suffix string
	var arch Archetype
	switch ty {
	case Academic:
		suffix = fmt.Sprintf("uni-%d.edu", idx)
		arch = Student
	case ISP:
		suffix = fmt.Sprintf("telecom-%d.net", idx)
		arch = HomeUser
	case Enterprise:
		suffix = fmt.Sprintf("co-%d.com", idx)
		arch = Employee
	case Government:
		suffix = fmt.Sprintf("agency-%d.gov", idx)
		arch = Employee
	default:
		suffix = fmt.Sprintf("org-%d.org", idx)
		arch = Staff
	}
	announced := alloc.alloc(21) // 8 /24s
	sub := announced.Slash24s()
	nDyn := 2 + int(hash64(cfg.Seed, uint64(idx), 0xD1)%4) // 2-5 dynamic /24s
	blocks := []Block{
		{Kind: BlockStaticInfra, Prefix: sub[0], SubLabel: "net"},
		{Kind: BlockServers, Prefix: sub[1], SubLabel: "srv"},
	}
	for i := 0; i < nDyn; i++ {
		blocks = append(blocks, Block{
			Kind: BlockDynamic, Prefix: sub[2+i],
			Policy: ipam.PolicyCarryOver, SubLabel: "dyn",
		})
	}
	var tl *Timeline
	var cal *Calendar
	switch ty {
	case Academic:
		tl, cal = USCampusCOVIDTimeline(cfg.Location), USAcademicCalendar(cfg.Location)
	case Enterprise, Government:
		tl = EnterpriseCOVIDTimeline(cfg.Location, idx%2 == 0)
	}
	name := fmt.Sprintf("%s-%d", ty, idx)
	n, err := NewNetwork(Config{
		Name: name, Type: ty,
		Suffix:    dnswire.MustName(suffix),
		Announced: announced,
		Blocks:    blocks,
		LeaseTime: time.Hour,
		Timeline:  tl,
		Calendar:  cal,
		Location:  cfg.Location,
		Seed:      hash64(cfg.Seed, hashString(name)),
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < nDyn; i++ {
		if err := n.Populate(PopulateSpec{
			Block: 2 + i, People: cfg.PeoplePerDynamicBlock, Archetype: arch,
			NamedFraction: 0.6, DevicesPerPerson: 2, ReleaseFraction: 0.75,
		}); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// buildHashedNetwork constructs a dynamic network that publishes hashed
// identifiers: dynamic in rDNS, but leaking no names.
func buildHashedNetwork(cfg UniverseConfig, alloc *addressAllocator, idx int) (*Network, error) {
	announced := alloc.alloc(22) // 4 /24s
	sub := announced.Slash24s()
	blocks := []Block{
		{Kind: BlockStaticInfra, Prefix: sub[0], SubLabel: "net"},
		{Kind: BlockDynamic, Prefix: sub[1], Policy: ipam.PolicyHashed, SubLabel: "dyn"},
		{Kind: BlockDynamic, Prefix: sub[2], Policy: ipam.PolicyHashed, SubLabel: "dyn"},
	}
	name := fmt.Sprintf("hashed-%d", idx)
	n, err := NewNetwork(Config{
		Name: name, Type: Other,
		Suffix:    dnswire.MustName(fmt.Sprintf("cdn-%d.net", idx)),
		Announced: announced,
		Blocks:    blocks,
		LeaseTime: time.Hour,
		Location:  cfg.Location,
		Seed:      hash64(cfg.Seed, hashString(name)),
	})
	if err != nil {
		return nil, err
	}
	for b := 1; b <= 2; b++ {
		if err := n.Populate(PopulateSpec{
			Block: b, People: cfg.PeoplePerDynamicBlock, Archetype: HomeUser,
			NamedFraction: 0.6, DevicesPerPerson: 2, ReleaseFraction: 0.75,
		}); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// plantBrians installs the scripted devices of the Figure 8 case study on
// a campus's first housing block: five Brian-owned devices with regular
// weekly patterns, a Thanksgiving-weekend absence, and a Galaxy Note 9
// that first appears on Cyber Monday afternoon.
func plantBrians(n *Network, loc *time.Location) error {
	housing := -1
	for i, b := range n.cfg.Blocks {
		if b.SubLabel == "housing" {
			housing = i
			break
		}
	}
	if housing < 0 {
		return fmt.Errorf("netsim: %s has no housing block", n.Name())
	}
	// Thanksgiving 2021: Thursday November 25; Cyber Monday November 29.
	thanksgiving := date(loc, 2021, time.November, 25)
	cyberMonday := date(loc, 2021, time.November, 29)
	awayDays := map[time.Time]bool{}
	for d := 0; d < 4; d++ {
		awayDays[thanksgiving.AddDate(0, 0, d)] = true
	}

	weekdays := func(sessions ...Session) map[time.Weekday][]Session {
		m := make(map[time.Weekday][]Session)
		for _, wd := range []time.Weekday{time.Monday, time.Tuesday, time.Wednesday, time.Thursday, time.Friday} {
			m[wd] = sessions
		}
		return m
	}
	full := weekdays(Session{8 * time.Hour, 22 * time.Hour})
	full[time.Saturday] = []Session{{10 * time.Hour, 23 * time.Hour}}
	full[time.Sunday] = []Session{{10 * time.Hour, 22 * time.Hour}}

	noonOnly := weekdays(Session{11*time.Hour + 30*time.Minute, 14 * time.Hour})

	evenings := weekdays(Session{17 * time.Hour, 23 * time.Hour})
	evenings[time.Saturday] = []Session{{9 * time.Hour, 23 * time.Hour}}
	evenings[time.Sunday] = []Session{{9 * time.Hour, 22 * time.Hour}}

	devices := []struct {
		host   string
		kind   DeviceKind
		weekly map[time.Weekday][]Session
		away   map[time.Time]bool
		start  time.Time
	}{
		{"Brians-Air", KindMacBookAir, full, awayDays, time.Time{}},
		{"Brians-MBP", KindMacBookPro, noonOnly, awayDays, time.Time{}},
		{"Brian's iPad", KindIPad, evenings, nil, time.Time{}},
		{"Brian's phone", KindGenericPhone, full, awayDays, time.Time{}},
		{"Brians-Galaxy-Note9", KindGalaxyNote, evenings, nil,
			cyberMonday.Add(14 * time.Hour)}, // appears Cyber Monday afternoon
	}
	for i, d := range devices {
		id := hash64(hashString(n.Name()), hashString(d.host), uint64(i), 0xB1)
		sched := &ScriptedScheduler{
			Weekly:      d.weekly,
			AbsentDates: d.away,
		}
		if !d.start.IsZero() {
			sched.Activate = midnight(d.start)
			// On its first day, the device appears only in the
			// afternoon.
			sched.Overrides = map[time.Time][]Session{
				midnight(d.start): {{14 * time.Hour, 23 * time.Hour}},
			}
		}
		dev := &Device{
			ID: id, Owner: "brian", Kind: d.kind, HostName: d.host,
			MAC: macForID(id), SendRelease: i%2 == 0,
			Schedule: sched,
		}
		if err := n.AddDevice(dev, housing, Resident); err != nil {
			return err
		}
	}
	return nil
}

// plantRoamingBrian installs the Section 8 geotracking subject: one
// physical phone (one MAC, one hostname) that associates with a different
// building's subnet through the day — library in the morning, the
// engineering hall around noon, the science center in the afternoon, and a
// dorm in the evening. Because each building's DHCP pool is a different
// /24, an outside observer with subnet-to-building knowledge can follow
// the phone across campus via PTR queries alone.
func plantRoamingBrian(n *Network, loc *time.Location) error {
	mac := macForID(hashString(n.Name()) ^ 0xA0A)
	host := "Brians-Galaxy-S10"
	weekdaysAt := func(from, to time.Duration) map[time.Weekday][]Session {
		m := make(map[time.Weekday][]Session)
		for _, wd := range []time.Weekday{time.Monday, time.Tuesday, time.Wednesday, time.Thursday, time.Friday} {
			m[wd] = []Session{{from, to}}
		}
		return m
	}
	stops := []struct {
		building string
		weekly   map[time.Weekday][]Session
	}{
		{"library", weekdaysAt(9*time.Hour, 11*time.Hour)},
		{"engineering-hall", weekdaysAt(11*time.Hour+30*time.Minute, 13*time.Hour)},
		{"science-center", weekdaysAt(14*time.Hour, 16*time.Hour)},
		{"dorm-west", weekdaysAt(17*time.Hour, 23*time.Hour)},
	}
	for i, stop := range stops {
		blockIdx := -1
		for bi, b := range n.cfg.Blocks {
			if b.Building == stop.building {
				blockIdx = bi
				break
			}
		}
		if blockIdx < 0 {
			return fmt.Errorf("netsim: no block for building %s", stop.building)
		}
		id := hash64(hashString(n.Name()), hashString(host), uint64(i), 0xEA)
		dev := &Device{
			ID: id, Owner: "brian", Kind: KindGalaxyPhone, HostName: host,
			MAC: mac, SendRelease: true,
			Schedule: &ScriptedScheduler{Weekly: stop.weekly},
		}
		if err := n.AddDevice(dev, blockIdx, Student); err != nil {
			return err
		}
	}
	return nil
}

// BuildValidationCampus constructs the ground-truth campus of Section 4.1:
// a /16 whose numbering plan contains 40 dynamic-rDNS prefixes, 83
// DHCP-but-static-rDNS prefixes, 123 purely static prefixes, and 10 empty
// ones. It returns the network and the ground-truth /24 sets.
func BuildValidationCampus(seed uint64, loc *time.Location) (*Network, map[string][]dnswire.Prefix, error) {
	if loc == nil {
		loc = time.UTC
	}
	announced := dnswire.MustPrefix("172.16.0.0/16")
	sub := announced.Slash24s()
	truth := map[string][]dnswire.Prefix{}
	var blocks []Block
	idx := 0
	add := func(n int, mk func(p dnswire.Prefix) Block, class string) {
		for i := 0; i < n; i++ {
			p := sub[idx]
			idx++
			blocks = append(blocks, mk(p))
			truth[class] = append(truth[class], p)
		}
	}
	add(40, func(p dnswire.Prefix) Block {
		return Block{Kind: BlockDynamic, Prefix: p, Policy: ipam.PolicyCarryOver, SubLabel: "dyn"}
	}, "dynamic")
	add(83, func(p dnswire.Prefix) Block {
		return Block{Kind: BlockDynamic, Prefix: p, Policy: ipam.PolicyStaticForm, SubLabel: "dhcp"}
	}, "dhcp-static")
	add(103, func(p dnswire.Prefix) Block {
		return Block{Kind: BlockStaticInfra, Prefix: p, SubLabel: "net", Density: 0.5}
	}, "static")
	add(20, func(p dnswire.Prefix) Block {
		return Block{Kind: BlockServers, Prefix: p, SubLabel: "srv"}
	}, "static")
	add(10, func(p dnswire.Prefix) Block {
		return Block{Kind: BlockEmpty, Prefix: p}
	}, "empty")

	n, err := NewNetwork(Config{
		Name: "Validation-Campus", Type: Academic,
		Suffix:    dnswire.MustName("institute.edu"),
		Announced: announced,
		Blocks:    blocks,
		LeaseTime: time.Hour,
		Calendar:  USAcademicCalendar(loc),
		Location:  loc,
		Seed:      seed,
	})
	if err != nil {
		return nil, nil, err
	}
	for bi, b := range blocks {
		if b.Kind == BlockDynamic && b.Policy == ipam.PolicyCarryOver {
			if err := n.Populate(PopulateSpec{
				Block: bi, People: 45, Archetype: Staff,
				NamedFraction: 0.6, DevicesPerPerson: 2, ReleaseFraction: 0.75,
			}); err != nil {
				return nil, nil, err
			}
		}
	}
	return n, truth, nil
}
