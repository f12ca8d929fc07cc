package netsim

import (
	"fmt"
	"time"

	"rdnsprivacy/internal/dhcp"
	"rdnsprivacy/internal/dnsserver"
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/fabric"
	"rdnsprivacy/internal/icmp"
	"rdnsprivacy/internal/ipam"
	"rdnsprivacy/internal/names"
	"rdnsprivacy/internal/telemetry"
)

// defaultNamePool is the owner-name pool for random population: the
// matching top-50 plus common names outside it (Brian lives there).
func defaultNamePool() []string {
	pool := make([]string, 0, len(names.Top50)+len(names.Extra))
	pool = append(pool, names.Top50...)
	pool = append(pool, names.Extra...)
	return pool
}

// SetDNSFailure configures live-mode name-server failure injection. It
// must be called before Start.
func (n *Network) SetDNSFailure(fm dnsserver.FailureMode) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.DNSFailure = fm
}

// SetDNSTracer attaches tr to the live-mode authoritative server so
// correlated queries emit "server" spans (see dnsserver.SetTracer). Takes
// effect immediately when the network is already live, otherwise at Start.
func (n *Network) SetDNSTracer(tr *telemetry.Tracer) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.DNSTracer = tr
	if n.live != nil {
		n.live.dns.SetTracer(tr)
	}
}

// Start switches the network to live, event-driven mode on a fabric: it
// builds per-/24 reverse zones on an authoritative server reachable at
// DNSAddr(), a DHCP server and IPAM updater per dynamic block, an ICMP
// responder for the announced prefix, and schedules every device's joins
// and leaves on the clock, day by day, until Stop is called. No handle to
// those timers is kept: each carries the run it was scheduled for and does
// nothing once that run is over.
//
// In this mode the network is observable exactly as the paper's targets
// were: PTR queries against the authoritative server and ICMP probes are
// the only windows in.
func (n *Network) Start(fab *fabric.Fabric) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.live != nil {
		return fmt.Errorf("netsim: %s already started", n.cfg.Name)
	}
	clock := fab.Clock()
	live := &liveState{
		clock:   clock,
		fab:     fab,
		dns:     dnsserver.NewServer(),
		zones:   make(map[dnswire.Name]*dnsserver.Zone),
		clients: make(map[uint64]*dhcp.Client),
	}

	// Reverse zones for every /24 the network announces records in.
	zoneFor := func(p dnswire.Prefix) (*dnsserver.Zone, error) {
		origin, err := dnswire.ReverseZoneFor24(p)
		if err != nil {
			return nil, err
		}
		if z, ok := live.zones[origin]; ok {
			return z, nil
		}
		ns, err := n.cfg.Suffix.Prepend("ns1")
		if err != nil {
			return nil, err
		}
		mbox, err := n.cfg.Suffix.Prepend("hostmaster")
		if err != nil {
			return nil, err
		}
		z := dnsserver.NewZone(dnsserver.ZoneConfig{
			Origin:    origin,
			PrimaryNS: ns,
			Mbox:      mbox,
		})
		live.zones[origin] = z
		live.dns.AddZone(z)
		return z, nil
	}

	// Static records (including static-form dynamic blocks) go straight
	// into the zones.
	for ip, name := range n.staticRec {
		z, err := zoneFor(ip.Slash24())
		if err != nil {
			return err
		}
		if err := z.SetPTR(dnswire.ReverseName(ip), name); err != nil {
			return err
		}
	}

	// Dynamic blocks: a DHCP server + IPAM updater each.
	for bi, b := range n.cfg.Blocks {
		if b.Kind != BlockDynamic || b.Policy == ipam.PolicyStaticForm {
			continue
		}
		updater := ipam.NewUpdater(ipam.Config{
			Policy: b.Policy,
			Suffix: n.blockSuffix(b),
		})
		for _, p := range b.Prefix.Slash24s() {
			z, err := zoneFor(p)
			if err != nil {
				return err
			}
			if err := updater.AttachZone(z); err != nil {
				return err
			}
		}
		srv := dhcp.NewServer(clock, dhcp.ServerConfig{
			ServerIP:  b.Prefix.Nth(1),
			Pools:     []dnswire.Prefix{b.Prefix},
			LeaseTime: n.cfg.LeaseTime,
			Sink:      n.wrapSink(updater),
		})
		live.servers = append(live.servers, srv)
		for _, d := range n.sortedBlockDevices(bi) {
			srv.Prebind(d.MAC, n.deviceIP[d.ID])
			live.clients[d.ID] = dhcp.NewClient(clock, srv, dhcp.ClientConfig{
				CHAddr:      d.MAC,
				HostName:    d.HostName,
				SendRelease: d.SendRelease,
			})
		}
	}

	if n.cfg.DNSFailure != (dnsserver.FailureMode{}) {
		live.dns.SetFailureMode(n.cfg.DNSFailure)
	}
	if n.cfg.DNSTracer != nil {
		live.dns.SetTracer(n.cfg.DNSTracer)
	}

	// Authoritative DNS on the fabric.
	ep, err := live.dns.AttachFabric(fab, n.DNSAddr())
	if err != nil {
		return err
	}
	live.dnsEP = ep

	// ICMP: hosts answer pings when online, unless the edge blocks them.
	icmp.NewResponder(fab, n.cfg.Announced, func(ip dnswire.IPv4) bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.onlineIP[ip] {
			return true
		}
		_, static := n.staticRec[ip]
		return static
	}, n.cfg.BlockICMP)

	n.live = live

	// Drive devices: schedule today's remaining sessions now, then every
	// midnight schedule the next day.
	start := clock.Now().In(n.cfg.Location)
	n.scheduleDayLocked(midnight(start), start)
	untilMidnight := midnight(start).AddDate(0, 0, 1).Sub(start)
	clock.AfterFunc(untilMidnight, func() { n.midnightTick(live) })
	return nil
}

// midnightTick schedules each new day's sessions and re-arms itself.
func (n *Network) midnightTick(live *liveState) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.live != live {
		return
	}
	now := live.clock.Now().In(n.cfg.Location)
	day := midnight(now)
	n.scheduleDayLocked(day, now)
	next := day.AddDate(0, 0, 1).Sub(now)
	if next <= 0 {
		next = 24 * time.Hour
	}
	live.clock.AfterFunc(next, func() { n.midnightTick(live) })
}

// scheduleDayLocked schedules joins and leaves for every device for the day
// starting at local midnight `day`. Sessions already in progress at `from`
// are joined immediately; fully elapsed ones are skipped.
func (n *Network) scheduleDayLocked(day, from time.Time) {
	live := n.live
	for bi, b := range n.cfg.Blocks {
		if b.Kind != BlockDynamic || b.Policy == ipam.PolicyStaticForm {
			continue
		}
		for _, dd := range n.blockDev[bi] {
			d := dd.dev
			occ := n.occupancyFor(day, dd.arch)
			for _, s := range d.SessionsOn(day, occ) {
				startAt := day.Add(s.Start)
				endAt := day.Add(s.End)
				if endAt.Before(from) || endAt.Equal(from) {
					continue
				}
				dev := d
				if startAt.After(from) {
					delay := startAt.Sub(from)
					live.clock.AfterFunc(delay, func() { n.deviceJoin(live, dev) })
				} else {
					// Session already underway: join on the next
					// clock step.
					live.clock.AfterFunc(0, func() { n.deviceJoin(live, dev) })
				}
				live.clock.AfterFunc(endAt.Sub(from), func() { n.deviceLeave(live, dev) })
			}
		}
	}
}

// current reports whether live is still the network's run: a timer left
// over from before a Stop must not act on the run a later Start began.
func (n *Network) current(live *liveState) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.live == live
}

func (n *Network) deviceJoin(live *liveState, d *Device) {
	if !n.current(live) {
		return
	}
	client := live.clients[d.ID]
	if client == nil {
		return
	}
	if _, bound := client.Bound(); bound {
		return
	}
	ip, err := client.Join()
	n.mu.Lock()
	defer n.mu.Unlock()
	if err != nil {
		live.joinFail++
		return
	}
	n.onlineIP[ip] = true
}

func (n *Network) deviceLeave(live *liveState, d *Device) {
	if !n.current(live) {
		return
	}
	client := live.clients[d.ID]
	if client == nil {
		return
	}
	ip, bound := client.Bound()
	if !bound {
		return
	}
	client.Leave()
	n.mu.Lock()
	delete(n.onlineIP, ip)
	n.mu.Unlock()
}

// wrapSink passes DHCP lease events through to the IPAM updater.
func (n *Network) wrapSink(u *ipam.Updater) dhcp.EventSink {
	return dhcp.EventSinkFunc(func(ev dhcp.Event) {
		u.LeaseEvent(ev)
		if ev.Kind == dhcp.LeaseExpired {
			// A lease expiring server-side means the host has been
			// gone; ensure the online set agrees.
			n.mu.Lock()
			delete(n.onlineIP, ev.IP)
			n.mu.Unlock()
		}
	})
}

// Stop leaves live mode: the DNS endpoint closes, and the joins, leaves and
// midnight tick still on the clock find their run over when they fire.
func (n *Network) Stop() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.live == nil {
		return
	}
	if n.live.dnsEP != nil {
		n.live.dnsEP.Close()
	}
	n.live = nil
	n.onlineIP = make(map[dnswire.IPv4]bool)
}

// JoinFailures reports how many device joins failed (pool exhaustion).
func (n *Network) JoinFailures() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.live == nil {
		return 0
	}
	return n.live.joinFail
}
