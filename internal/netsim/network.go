package netsim

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"rdnsprivacy/internal/dhcp"
	"rdnsprivacy/internal/dnsserver"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/faultsim"
	"rdnsprivacy/internal/icmp"
	"rdnsprivacy/internal/ipam"
	"rdnsprivacy/internal/simclock"
	"rdnsprivacy/internal/telemetry"
)

// NetworkType classifies networks the way Section 5.2 does.
type NetworkType int

// Network types (Figure 4).
const (
	Academic NetworkType = iota
	ISP
	Enterprise
	Government
	Other
)

// String returns the label used in Figure 4.
func (t NetworkType) String() string {
	switch t {
	case Academic:
		return "academic"
	case ISP:
		return "isp"
	case Enterprise:
		return "enterprise"
	case Government:
		return "government"
	case Other:
		return "other"
	default:
		return "unknown"
	}
}

// BlockKind classifies address blocks within a network's numbering plan.
type BlockKind int

// Block kinds.
const (
	// BlockDynamic serves DHCP clients; its rDNS policy decides whether
	// it leaks.
	BlockDynamic BlockKind = iota
	// BlockStaticInfra holds router/switch infrastructure records.
	BlockStaticInfra
	// BlockStaticPool holds fixed-form subscriber records (ISP style).
	BlockStaticPool
	// BlockServers holds a handful of service hosts.
	BlockServers
	// BlockEmpty has no records at all.
	BlockEmpty
)

// Block is one entry of a network's numbering plan.
type Block struct {
	// Kind selects the block behaviour.
	Kind BlockKind
	// Prefix is the address space of the block.
	Prefix dnswire.Prefix
	// Policy is the IPAM policy for BlockDynamic blocks.
	Policy ipam.Policy
	// SubLabel names the block inside the hostname suffix, e.g.
	// "housing" or "dyn". Records publish under SubLabel.<suffix>.
	SubLabel string
	// Density is the fraction of addresses with records for static
	// blocks (0 defaults to 0.35 for infra, 0.9 for pools).
	Density float64
	// Building optionally names the physical building the block serves.
	// The paper's discussion (Section 8) notes that subnet-to-building
	// knowledge turns presence tracking into geotemporal tracking; this
	// field is the simulation's ground truth for that knowledge.
	Building string
}

// Config describes a network.
type Config struct {
	// Name identifies the network in reports, e.g. "Academic-A".
	Name string
	// Type classifies it.
	Type NetworkType
	// Suffix is the base hostname suffix (TLD+1 and below), e.g.
	// campus-a.example.edu.
	Suffix dnswire.Name
	// Announced is the covering announced prefix.
	Announced dnswire.Prefix
	// Blocks is the numbering plan. Block prefixes must fall inside
	// Announced.
	Blocks []Block
	// LeaseTime is the DHCP lease duration (default 1h).
	LeaseTime time.Duration
	// BlockICMP drops inbound pings at the network edge.
	BlockICMP bool
	// Timeline provides COVID-phase occupancy; nil means always normal.
	Timeline *Timeline
	// Calendar provides holiday occupancy; nil means none.
	Calendar *Calendar
	// Location is the local timezone (default UTC).
	Location *time.Location
	// Seed drives all randomness for this network.
	Seed uint64
	// DNSFailure is the fault plan the live-mode name server draws its
	// failures from, modelling the errors the paper observes during
	// supplemental measurement (Figure 6). No profiles, no faults.
	DNSFailure faultsim.Plan
	// DNSTracer, when set, makes the live-mode authoritative server emit
	// one "server" span per correlated query, joining the network's side
	// of each probe to the scanner's causal chain (telemetry.CorrID).
	DNSTracer *telemetry.Tracer
}

// Network is a simulated network: a population of devices plus the operator
// infrastructure that exposes (or hides) them in reverse DNS. Create one
// with NewNetwork, add devices with Populate or AddDevice, then either
// evaluate snapshots with RecordsAt, or run it live on a fabric
// with Start.
type Network struct {
	cfg Config

	arch      map[uint64]Archetype
	deviceIP  map[uint64]dnswire.IPv4
	blockDev  [][]dynDevice // block index -> devices
	rng       *rand.Rand
	staticRec map[dnswire.IPv4]dnswire.Name // cached static records

	// Live state (event-driven mode).
	mu       sync.Mutex
	live     *liveState
	onlineIP map[dnswire.IPv4]bool
}

type liveState struct {
	clock    simclock.Clock
	fab      *fabric.Fabric
	dns      *dnsserver.Server
	dnsEP    *fabric.Endpoint
	pings    *icmp.Responder
	zones    map[dnswire.Name]*dnsserver.Zone
	servers  []*dhcp.Server
	clients  map[uint64]*dhcp.Client
	joinFail uint64
}

// NewNetwork builds a network from a config.
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.LeaseTime <= 0 {
		cfg.LeaseTime = time.Hour
	}
	if cfg.Location == nil {
		cfg.Location = time.UTC
	}
	for i, b := range cfg.Blocks {
		if !cfg.Announced.Contains(b.Prefix.Addr) {
			return nil, fmt.Errorf("netsim: block %d (%s) outside announced %s", i, b.Prefix, cfg.Announced)
		}
	}
	n := &Network{
		cfg:       cfg,
		arch:      make(map[uint64]Archetype),
		deviceIP:  make(map[uint64]dnswire.IPv4),
		blockDev:  make([][]dynDevice, len(cfg.Blocks)),
		rng:       rand.New(rand.NewSource(int64(cfg.Seed))),
		staticRec: make(map[dnswire.IPv4]dnswire.Name),
		onlineIP:  make(map[dnswire.IPv4]bool),
	}
	if err := n.buildStaticRecords(); err != nil {
		return nil, err
	}
	return n, nil
}

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// Name returns the network's report name.
func (n *Network) Name() string { return n.cfg.Name }

// DeviceIP returns the planned address of a device.
func (n *Network) DeviceIP(d *Device) (dnswire.IPv4, bool) {
	ip, ok := n.deviceIP[d.ID]
	return ip, ok
}

// BuildingFor returns the building name serving ip, if the numbering plan
// records one.
func (n *Network) BuildingFor(ip dnswire.IPv4) (string, bool) {
	for _, b := range n.cfg.Blocks {
		if b.Building != "" && b.Prefix.Contains(ip) {
			return b.Building, true
		}
	}
	return "", false
}

// DNSAddr returns the fabric address of the network's authoritative name
// server: the .3 address of the first /24, port 53, by convention.
func (n *Network) DNSAddr() fabric.Addr {
	return fabric.Addr{IP: n.cfg.Announced.Nth(3), Port: 53}
}

// blockSuffix computes the hostname suffix for a block.
func (n *Network) blockSuffix(b Block) dnswire.Name {
	if b.SubLabel == "" {
		return n.cfg.Suffix
	}
	s, err := n.cfg.Suffix.Prepend(b.SubLabel)
	if err != nil {
		return n.cfg.Suffix
	}
	return s
}

// AddDevice places a device in the numbering plan's blockIdx-th block with
// the given archetype. The address is assigned deterministically.
func (n *Network) AddDevice(d *Device, blockIdx int, arch Archetype) error {
	if err := n.checkDynamic(blockIdx); err != nil {
		return err
	}
	return n.addDevice(d, blockIdx, arch, n.usableIPs(blockIdx))
}

// checkDynamic reports an error unless blockIdx names a dynamic block.
func (n *Network) checkDynamic(blockIdx int) error {
	if blockIdx < 0 || blockIdx >= len(n.cfg.Blocks) {
		return fmt.Errorf("netsim: block index %d out of range", blockIdx)
	}
	if n.cfg.Blocks[blockIdx].Kind != BlockDynamic {
		return fmt.Errorf("netsim: block %d is not dynamic", blockIdx)
	}
	return nil
}

// addDevice is AddDevice given the block's usableIPs, which Populate
// shuffles once per block rather than once per device.
func (n *Network) addDevice(d *Device, blockIdx int, arch Archetype, usable []dnswire.IPv4) error {
	b := n.cfg.Blocks[blockIdx]
	idx := len(n.blockDev[blockIdx])
	if idx >= len(usable) {
		return fmt.Errorf("netsim: block %d full (%d devices)", blockIdx, idx)
	}
	ip := usable[idx]
	n.arch[d.ID] = arch
	n.deviceIP[d.ID] = ip
	target, err := ipam.Target(b.Policy, n.blockSuffix(b), leaseEventFor(d, ip))
	n.blockDev[blockIdx] = append(n.blockDev[blockIdx], dynDevice{
		dev: d, arch: arch, ip: ip, target: target, publishes: err == nil,
	})
	return nil
}

// dynDevice is a dynamic block's device as snapshot evaluation reads it:
// the archetype and address AddDevice assigned, and the PTR target the
// block's policy publishes for the device's lease. The target is a pure
// function of the device's HostName, MAC and address and the block's
// policy, so it is computed once here rather than for every snapshot.
type dynDevice struct {
	dev       *Device
	arch      Archetype
	ip        dnswire.IPv4
	target    dnswire.Name
	publishes bool // false under PolicyStaticForm and PolicyNone, which publish no lease's name
}

// usableIPs enumerates the assignable addresses of a dynamic block in a
// deterministic shuffled order: network/broadcast addresses and the two
// lowest host addresses (reserved for the DHCP server and the name server)
// are excluded.
func (n *Network) usableIPs(blockIdx int) []dnswire.IPv4 {
	b := n.cfg.Blocks[blockIdx]
	count := b.Prefix.NumAddresses()
	ips := make([]dnswire.IPv4, 0, count-4)
	for i := 3; i < count-1; i++ {
		ips = append(ips, b.Prefix.Nth(i))
	}
	// Deterministic shuffle so address usage does not cluster at the
	// bottom of the prefix.
	r := rand.New(rand.NewSource(int64(hash64(n.cfg.Seed, uint64(blockIdx), 0x51))))
	r.Shuffle(len(ips), func(i, j int) { ips[i], ips[j] = ips[j], ips[i] })
	return ips
}

// PopulateSpec controls random population of a dynamic block.
type PopulateSpec struct {
	// Block is the index of the dynamic block to fill.
	Block int
	// People is how many persons to create.
	People int
	// Archetype applies to every person in this spec.
	Archetype Archetype
	// NamedFraction is the fraction of devices that carry their owner's
	// given name (the rest use serial-style names).
	NamedFraction float64
	// DevicesPerPerson bounds the 1..N devices each person owns.
	DevicesPerPerson int
	// ReleaseFraction is the fraction of devices that send DHCPRELEASE
	// on leave.
	ReleaseFraction float64
	// NamePool supplies owner given names; defaults to the union of the
	// matching top-50 and the extra common names.
	NamePool []string
}

// Populate fills a block with randomly generated people and devices,
// deterministically under the network seed.
func (n *Network) Populate(spec PopulateSpec) error {
	if err := n.checkDynamic(spec.Block); err != nil {
		return err
	}
	usable := n.usableIPs(spec.Block)
	pool := spec.NamePool
	if len(pool) == 0 {
		pool = defaultNamePool()
	}
	per := spec.DevicesPerPerson
	if per <= 0 {
		per = 3
	}
	kinds := []DeviceKind{
		KindIPhone, KindIPad, KindMacBookAir, KindMacBookPro,
		KindAndroidPhone, KindGalaxyPhone, KindGalaxyNote, KindDellLaptop,
		KindLenovoLaptop, KindWindowsDesktop, KindChromebook, KindGenericPhone,
	}
	for p := 0; p < spec.People; p++ {
		owner := pool[n.rng.Intn(len(pool))]
		numDev := 1 + n.rng.Intn(per)
		for d := 0; d < numDev; d++ {
			kind := kinds[n.rng.Intn(len(kinds))]
			nameOwner := owner
			if n.rng.Float64() >= spec.NamedFraction {
				nameOwner = ""
			}
			id := hash64(n.cfg.Seed, hashString(n.cfg.Name), uint64(spec.Block), uint64(p), uint64(d))
			dev := &Device{
				ID:          id,
				Owner:       owner,
				Kind:        kind,
				HostName:    HostNameFor(kind, nameOwner, n.rng),
				MAC:         macForID(id),
				SendRelease: n.rng.Float64() < spec.ReleaseFraction,
				Schedule:    NewArchetypeScheduler(spec.Archetype, id, n.cfg.Seed),
			}
			if err := n.addDevice(dev, spec.Block, spec.Archetype, usable); err != nil {
				return err
			}
		}
	}
	return nil
}

// occupancyFor combines timeline and calendar factors for an archetype on a
// date.
func (n *Network) occupancyFor(d time.Time, a Archetype) float64 {
	f := n.cfg.Timeline.At(d).Factor(a)
	return f * n.cfg.Calendar.FactorOn(d, a)
}

// Record is one (address, hostname) pair visible in reverse DNS.
type Record struct {
	IP       dnswire.IPv4
	HostName dnswire.Name
}

// RecordsAt evaluates the network's complete reverse-DNS content at t
// without running the event simulation: static records plus, for each
// dynamic block, the records of devices present at t — including records
// that linger after a silent leave until the DHCP lease expires, the
// behaviour the paper measures in Section 6.
func (n *Network) RecordsAt(t time.Time, emit func(Record)) {
	for ip, name := range n.staticRec {
		emit(Record{IP: ip, HostName: name})
	}
	at := n.instantAt(t)
	for _, block := range n.blockDev {
		for i := range block {
			dd := &block[i]
			if dd.publishes && at.visible(n, dd) {
				emit(Record{IP: dd.ip, HostName: dd.target})
			}
		}
	}
}

// instant is one evaluation time resolved once for every device of a
// network: its local day boundaries, its offset into today, and each
// archetype's occupancy today and yesterday.
type instant struct {
	t, today, yesterday time.Time
	off, lease          time.Duration
	occ                 [Infra + 1][2]float64
}

func (n *Network) instantAt(t time.Time) *instant {
	local := t.In(n.cfg.Location)
	today := midnight(local)
	at := &instant{
		t:         local,
		today:     today,
		yesterday: today.AddDate(0, 0, -1),
		off:       local.Sub(today),
		lease:     n.cfg.LeaseTime,
	}
	for a := range at.occ {
		at.occ[a] = [2]float64{n.occupancyFor(at.today, Archetype(a)), n.occupancyFor(at.yesterday, Archetype(a))}
	}
	return at
}

// occupancy returns an archetype's occupancy today and yesterday.
func (at *instant) occupancy(n *Network, a Archetype) (today, yesterday float64) {
	if a < 0 || int(a) >= len(at.occ) {
		return n.occupancyFor(at.today, a), n.occupancyFor(at.yesterday, a)
	}
	return at.occ[a][0], at.occ[a][1]
}

// visible decides whether a device's PTR exists at the instant: the device
// is online now (in one of today's sessions, or yesterday's running past
// midnight), or it left silently within one lease time, on today's or
// yesterday's schedule. Each day's sessions are evaluated once and serve
// both questions. The online check reads yesterday's spill-over at today's
// occupancy — a quirk, kept because every seeded report and golden was
// produced with it — while the lease check reads yesterday at its own, so
// yesterday is evaluated a second time only on the days the two
// occupancies differ. Both days' sessions are drawn into arrays on the
// stack: an archetype device's evaluation allocates nothing.
func (at *instant) visible(n *Network, dd *dynDevice) bool {
	d := dd.dev
	occ, occPrev := at.occupancy(n, dd.arch)
	var todayBuf, prevBuf [4]Session
	today := appendSessions(d.Schedule, todayBuf[:0], at.today, occ)
	for _, s := range today {
		if at.off >= s.Start && at.off < s.End {
			return true
		}
	}
	prev := appendSessions(d.Schedule, prevBuf[:0], at.yesterday, occ)
	offPrev := at.off + 24*time.Hour
	for _, s := range prev {
		if offPrev >= s.Start && offPrev < s.End {
			return true
		}
	}
	if d.SendRelease {
		return false
	}
	for _, s := range today {
		if at.lingers(at.today.Add(s.End)) {
			return true
		}
	}
	if occPrev != occ {
		prev = appendSessions(d.Schedule, prevBuf[:0], at.yesterday, occPrev)
	}
	for _, s := range prev {
		if at.lingers(at.yesterday.Add(s.End)) {
			return true
		}
	}
	return false
}

// appendSessions is sch.AppendSessions with the archetype scheduler called
// by its concrete type: a slice passed through the interface escapes, and
// the caller's stack array with it. Any other scheduler draws into a
// slice of its own, copied onto dst.
func appendSessions(sch Scheduler, dst []Session, date time.Time, occ float64) []Session {
	if as, ok := sch.(*archetypeScheduler); ok {
		return as.AppendSessions(dst, date, occ)
	}
	return append(dst, sch.AppendSessions(nil, date, occ)...)
}

// lingers reports whether a session that ended at end still holds its
// lease, and so its record, at the instant.
func (at *instant) lingers(end time.Time) bool {
	return end.Before(at.t) && at.t.Sub(end) < at.lease
}

// leaseEventFor fabricates the lease event a device's join produces, for
// name computation in snapshot mode.
func leaseEventFor(d *Device, ip dnswire.IPv4) dhcp.Event {
	return dhcp.Event{
		Kind:     dhcp.LeaseGranted,
		IP:       ip,
		HostName: d.HostName,
		CHAddr:   d.MAC,
	}
}

// buildStaticRecords materializes the records of static blocks once.
func (n *Network) buildStaticRecords() error {
	for bi, b := range n.cfg.Blocks {
		switch b.Kind {
		case BlockStaticInfra:
			n.buildInfraRecords(bi, b)
		case BlockStaticPool:
			n.buildPoolRecords(bi, b)
		case BlockServers:
			n.buildServerRecords(bi, b)
		case BlockDynamic:
			if b.Policy == ipam.PolicyStaticForm {
				if err := n.buildStaticFormRecords(b); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// buildInfraRecords creates router-style records with location and
// interface terms — the records Section 5.1 excludes via generic terms,
// including city names that collide with given names.
func (n *Network) buildInfraRecords(bi int, b Block) {
	density := b.Density
	if density == 0 {
		density = 0.35
	}
	suffix := n.blockSuffix(b)
	cities := []string{"jackson", "madison", "logan", "jordan", "salem", "aurora", "dayton", "lincoln"}
	roles := []string{"core", "edge", "border", "gw", "rtr"}
	ifaces := []string{"ge-0-0", "ge-0-1", "xe-1-0", "eth0", "vlan10", "vlan120", "po1"}
	count := b.Prefix.NumAddresses()
	for i := 1; i < count-1; i++ {
		ip := b.Prefix.Nth(i)
		h := hash64(n.cfg.Seed, hashString(n.cfg.Name), uint64(bi), uint64(i), 0x1F)
		if telemetry.UnitFloat(h) >= density {
			continue
		}
		role := roles[h>>8%uint64(len(roles))]
		city := cities[h>>16%uint64(len(cities))]
		iface := ifaces[h>>24%uint64(len(ifaces))]
		label := fmt.Sprintf("%s.%s%d.%s", iface, role, h>>32%4+1, city)
		name, err := dnswire.ParseName(label + "." + string(suffix))
		if err != nil {
			continue
		}
		n.staticRec[ip] = name
	}
}

// buildPoolRecords creates ISP-style fixed subscriber records
// (static-198-51-100-7.<suffix>).
func (n *Network) buildPoolRecords(bi int, b Block) {
	density := b.Density
	if density == 0 {
		density = 0.9
	}
	suffix := n.blockSuffix(b)
	count := b.Prefix.NumAddresses()
	for i := 1; i < count-1; i++ {
		ip := b.Prefix.Nth(i)
		h := hash64(n.cfg.Seed, hashString(n.cfg.Name), uint64(bi), uint64(i), 0x2F)
		if telemetry.UnitFloat(h) >= density {
			continue
		}
		label := fmt.Sprintf("static-%d-%d-%d-%d", ip[0], ip[1], ip[2], ip[3])
		name, err := suffix.Prepend(label)
		if err != nil {
			continue
		}
		n.staticRec[ip] = name
	}
}

// buildServerRecords creates a handful of service-host records.
func (n *Network) buildServerRecords(bi int, b Block) {
	suffix := n.blockSuffix(b)
	services := []string{"www", "mail", "ns1", "ns2", "vpn", "smtp", "imap", "ldap", "print", "files"}
	for i, svc := range services {
		if i+10 >= b.Prefix.NumAddresses()-1 {
			break
		}
		ip := b.Prefix.Nth(i + 10)
		name, err := suffix.Prepend(svc)
		if err != nil {
			continue
		}
		n.staticRec[ip] = name
	}
}

// buildStaticFormRecords pre-populates fixed-form names for a whole dynamic
// block (the DHCP-but-static-rDNS configuration).
func (n *Network) buildStaticFormRecords(b Block) error {
	suffix := n.blockSuffix(b)
	count := b.Prefix.NumAddresses()
	for i := 1; i < count-1; i++ {
		ip := b.Prefix.Nth(i)
		name, err := ipam.StaticTarget(suffix, ip)
		if err != nil {
			return err
		}
		n.staticRec[ip] = name
	}
	return nil
}

// sortedBlockDevices returns the devices of a block in a stable order.
func (n *Network) sortedBlockDevices(bi int) []*Device {
	devs := make([]*Device, len(n.blockDev[bi]))
	for i, dd := range n.blockDev[bi] {
		devs[i] = dd.dev
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i].ID < devs[j].ID })
	return devs
}
