// Package ipam implements the IP Address Management policy layer that links
// DHCP lease events to DNS updates.
//
// This is the piece of operator infrastructure the paper identifies as the
// root cause of the privacy exposure (Sections 2.1 and 8): commercial IPAM
// systems (Bluecat, Efficient IP, Infoblox, Men & Mice, Solarwinds are named)
// make it easy to automatically publish DHCP client identifiers in the
// global reverse DNS. The Updater in this package subscribes to lease events
// from a DHCP server and maintains PTR records in a dnsserver.Zone according
// to a configurable policy:
//
//   - PolicyCarryOver publishes the client-provided Host Name verbatim
//     (sanitized into a DNS label). This is the leaking configuration the
//     paper studies: brians-iphone.dyn.example.edu.
//   - PolicyHashed publishes an opaque per-client hash, the mitigation the
//     paper suggests ("using some sort of hash seems prudent", Section 8).
//   - PolicyStaticForm pre-populates fixed-form names for the whole pool
//     (host1234.dynamic.institute.edu) and ignores lease events. The
//     paper's campus validation found 83 such prefixes: dynamic DHCP but
//     static rDNS, correctly NOT flagged by the dynamicity heuristic.
//   - PolicyNone publishes nothing.
package ipam

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"rdnsprivacy/internal/dhcp"
	"rdnsprivacy/internal/dhcpwire"
	"rdnsprivacy/internal/dnswire"
)

// Policy selects how lease events translate into DNS updates.
type Policy int

// Policies.
const (
	// PolicyCarryOver publishes client identifiers in PTR records.
	PolicyCarryOver Policy = iota
	// PolicyHashed publishes an opaque hash per client.
	PolicyHashed
	// PolicyStaticForm publishes fixed-form names for every address and
	// never changes them.
	PolicyStaticForm
	// PolicyNone publishes nothing.
	PolicyNone
)

// String returns a mnemonic.
func (p Policy) String() string {
	switch p {
	case PolicyCarryOver:
		return "carry-over"
	case PolicyHashed:
		return "hashed"
	case PolicyStaticForm:
		return "static-form"
	case PolicyNone:
		return "none"
	default:
		return fmt.Sprintf("policy%d", int(p))
	}
}

// Config configures an Updater.
type Config struct {
	// Policy selects the DNS update behaviour.
	Policy Policy
	// Suffix is the hostname suffix under which client names are
	// published, e.g. dyn.campus-a.example.edu.
	Suffix dnswire.Name
	// HonorClientNoUpdate, when set, suppresses publication for clients
	// whose Client FQDN option carries the N ("no update") bit, as
	// RFC 4702 intends and RFC 7844 recommends privacy-conscious
	// clients set.
	HonorClientNoUpdate bool
	// StaticPools lists the pools to pre-populate under
	// PolicyStaticForm.
	StaticPools []dnswire.Prefix
}

// ZoneWriter is the interface the updater writes through. A
// dnsserver.Zone satisfies it directly (the co-located IPAM+DNS
// deployment); RFC2136Writer satisfies it by sending DNS UPDATE messages
// to a remote authoritative server (the split deployment real IPAM
// products use).
type ZoneWriter interface {
	// Origin returns the zone apex the writer covers.
	Origin() dnswire.Name
	// SetPTR installs or replaces the PTR record at name.
	SetPTR(name, target dnswire.Name) error
	// RemovePTR deletes the PTR record at name, reporting whether the
	// deletion was issued.
	RemovePTR(name dnswire.Name) bool
}

// Updater maintains PTR records in zones in response to lease events. It
// implements dhcp.EventSink. Create one with NewUpdater, then attach the
// reverse zones covering the pools with AttachZone.
type Updater struct {
	cfg Config

	mu    sync.Mutex
	zones []ZoneWriter
	stats Stats
}

// Stats counts updater activity.
type Stats struct {
	Published  uint64
	Removed    uint64
	Refreshed  uint64
	Suppressed uint64
	NoZone     uint64
}

// NewUpdater creates an updater with the given policy.
func NewUpdater(cfg Config) *Updater {
	return &Updater{cfg: cfg}
}

// AttachZone registers a reverse zone the updater may write to. Under
// PolicyStaticForm the zone is immediately pre-populated for every attached
// static pool it covers.
func (u *Updater) AttachZone(z ZoneWriter) error {
	u.mu.Lock()
	u.zones = append(u.zones, z)
	u.mu.Unlock()
	if u.cfg.Policy != PolicyStaticForm {
		return nil
	}
	for _, pool := range u.cfg.StaticPools {
		n := pool.NumAddresses()
		for i := 0; i < n; i++ {
			ip := pool.Nth(i)
			rname := dnswire.ReverseName(ip)
			if !rname.HasSuffix(z.Origin()) {
				continue
			}
			target, err := u.staticName(ip)
			if err != nil {
				return err
			}
			if err := z.SetPTR(rname, target); err != nil {
				return err
			}
		}
	}
	return nil
}

// zoneFor finds the attached zone containing the reverse name of ip.
func (u *Updater) zoneFor(ip dnswire.IPv4) ZoneWriter {
	rname := dnswire.ReverseName(ip)
	u.mu.Lock()
	defer u.mu.Unlock()
	for _, z := range u.zones {
		if rname.HasSuffix(z.Origin()) {
			return z
		}
	}
	return nil
}

// LeaseEvent implements dhcp.EventSink.
func (u *Updater) LeaseEvent(ev dhcp.Event) {
	switch u.cfg.Policy {
	case PolicyNone, PolicyStaticForm:
		return
	}
	if u.cfg.HonorClientNoUpdate && ev.ClientFQDN != nil &&
		ev.ClientFQDN.Flags&dhcpwire.FQDNNoUpdate != 0 {
		u.count(func(s *Stats) { s.Suppressed++ })
		return
	}
	z := u.zoneFor(ev.IP)
	if z == nil {
		u.count(func(s *Stats) { s.NoZone++ })
		return
	}
	rname := dnswire.ReverseName(ev.IP)
	switch ev.Kind {
	case dhcp.LeaseGranted:
		target, err := u.targetFor(ev)
		if err != nil {
			return
		}
		if z.SetPTR(rname, target) == nil {
			u.count(func(s *Stats) { s.Published++ })
		}
	case dhcp.LeaseRenewed:
		target, err := u.targetFor(ev)
		if err != nil {
			return
		}
		if z.SetPTR(rname, target) == nil {
			u.count(func(s *Stats) { s.Refreshed++ })
		}
	case dhcp.LeaseReleased, dhcp.LeaseExpired:
		if z.RemovePTR(rname) {
			u.count(func(s *Stats) { s.Removed++ })
		}
	}
}

func (u *Updater) count(f func(*Stats)) {
	u.mu.Lock()
	f(&u.stats)
	u.mu.Unlock()
}

// targetFor computes the PTR target for a lease under the active policy.
func (u *Updater) targetFor(ev dhcp.Event) (dnswire.Name, error) {
	return Target(u.cfg.Policy, u.cfg.Suffix, ev)
}

// Target computes the PTR target a lease event publishes under a policy and
// suffix. It is exported so that snapshot-mode simulation (internal/netsim)
// produces byte-identical names to the event-driven DHCP path.
func Target(policy Policy, suffix dnswire.Name, ev dhcp.Event) (dnswire.Name, error) {
	switch policy {
	case PolicyCarryOver:
		return suffix.Prepend(clientLabel(ev))
	case PolicyHashed:
		return suffix.Prepend(hashedLabel(ev))
	}
	return "", fmt.Errorf("ipam: no target under policy %v", policy)
}

// StaticTarget computes the fixed-form name PolicyStaticForm publishes for
// an address under a suffix.
func StaticTarget(suffix dnswire.Name, ip dnswire.IPv4) (dnswire.Name, error) {
	base, err := suffix.Prepend("dynamic")
	if err != nil {
		return "", err
	}
	return base.Prepend(fmt.Sprintf("host-%d-%d", ip[2], ip[3]))
}

// clientLabel derives the published label from the client's identifiers:
// the Client FQDN's first label when present, else the sanitized Host Name,
// else an address-derived fallback.
func clientLabel(ev dhcp.Event) string {
	if ev.ClientFQDN != nil && ev.ClientFQDN.Name != "" {
		first := ev.ClientFQDN.Name
		if i := strings.IndexByte(first, '.'); i > 0 {
			first = first[:i]
		}
		if label := SanitizeLabel(first); label != "" {
			return label
		}
	}
	if label := SanitizeLabel(ev.HostName); label != "" {
		return label
	}
	return fmt.Sprintf("client-%d-%d", ev.IP[2], ev.IP[3])
}

// hashedLabel derives an opaque, stable, per-client label.
func hashedLabel(ev dhcp.Event) string {
	h := sha256.Sum256([]byte(ev.CHAddr.String() + "|" + ev.HostName))
	return "h-" + hex.EncodeToString(h[:4])
}

// staticName builds the fixed-form name for an address, e.g.
// host-10-34.dynamic.<suffix> — the shape the paper's campus uses for its
// 83 DHCP-but-static prefixes.
func (u *Updater) staticName(ip dnswire.IPv4) (dnswire.Name, error) {
	return StaticTarget(u.cfg.Suffix, ip)
}

// SanitizeLabel converts a free-form device name into a DNS label the way
// real DHCP/IPAM pipelines do: lowercase; apostrophes dropped; spaces,
// underscores and dots become hyphens; any other character outside
// [a-z0-9-] is dropped; leading/trailing hyphens are trimmed; the result is
// clipped to 63 octets. "Brian's iPhone" becomes "brians-iphone".
func SanitizeLabel(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ', r == '_', r == '.', r == '-':
			b.WriteByte('-')
		case r == '\'', r == '’':
			// Possessive apostrophes vanish: Brian's -> brians.
		default:
			// Anything else (unicode, punctuation) is dropped.
		}
	}
	out := strings.Trim(b.String(), "-")
	for strings.Contains(out, "--") {
		out = strings.ReplaceAll(out, "--", "-")
	}
	if len(out) > dnswire.MaxLabelLen {
		out = strings.Trim(out[:dnswire.MaxLabelLen], "-")
	}
	return out
}
