package scan

import (
	"context"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/netsim"
	"rdnsprivacy/internal/scanengine"
)

// UniverseSource adapts a campaign's universe to the snapshot engine. It
// implements both scanengine.Source (per-address probing) and
// scanengine.ShardSource (bulk enumeration — the fast path): the engine
// detects the latter and enumerates each target's records at the snapshot
// instant instead of probing every address, which is what makes
// multi-year daily campaigns over tens of thousands of /24s tractable.
// Enumeration is pure (netsim record evaluation mutates nothing), so the
// engine's workers can scan shards concurrently.
type UniverseSource struct {
	networks []*netsim.Network
	filler   []*netsim.FillerBlock

	netFor    map[dnswire.Prefix]*netsim.Network
	fillerFor map[dnswire.Prefix]*netsim.FillerBlock
}

// NewSource builds a UniverseSource over the campaign universe's networks
// and, unless SkipFiller is set, its filler.
func NewSource(c Campaign) *UniverseSource {
	s := &UniverseSource{
		networks:  c.Universe.Networks,
		netFor:    make(map[dnswire.Prefix]*netsim.Network),
		fillerFor: make(map[dnswire.Prefix]*netsim.FillerBlock),
	}
	if !c.SkipFiller {
		s.filler = c.Universe.Filler
	}
	for _, n := range s.networks {
		s.netFor[n.Config().Announced] = n
	}
	for _, f := range s.filler {
		s.fillerFor[f.Prefix] = f
	}
	return s
}

// Targets returns the source's sweep coverage: each network's announced
// prefix plus every filler /24. Pass it to scanengine.Request.
func (s *UniverseSource) Targets() []dnswire.Prefix {
	out := make([]dnswire.Prefix, 0, len(s.networks)+len(s.filler))
	for _, n := range s.networks {
		out = append(out, n.Config().Announced)
	}
	for _, f := range s.filler {
		out = append(out, f.Prefix)
	}
	return out
}

// ScanShard implements scanengine.ShardSource by enumerating the shard's
// records at the snapshot instant. Shards handed over by the engine are
// whole targets, so the common case is a single map hit; arbitrary shards
// fall back to an overlap walk.
func (s *UniverseSource) ScanShard(ctx context.Context, shard dnswire.Prefix, at time.Time, emit func(scanengine.Result)) error {
	emitRecord := func(r netsim.Record) {
		if shard.Contains(r.IP) {
			emit(scanengine.Result{IP: r.IP, Name: r.HostName, Found: true})
		}
	}
	if n, ok := s.netFor[shard]; ok {
		n.RecordsAt(at, emitRecord)
		return ctx.Err()
	}
	if f, ok := s.fillerFor[shard]; ok {
		f.Records(emitRecord)
		return ctx.Err()
	}
	for _, n := range s.networks {
		if n.Config().Announced.Overlaps(shard) {
			n.RecordsAt(at, emitRecord)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	for _, f := range s.filler {
		if f.Prefix.Overlaps(shard) {
			f.Records(emitRecord)
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	return ctx.Err()
}

// LookupPTR implements scanengine.Source for per-address probing. The
// engine prefers ScanShard; this path serves spot checks, evaluating only
// the producer owning the address. The zero time probes "now" semantics
// are not meaningful for a simulated universe, so callers should set
// Request.At; absent records return an authoritative absence.
func (s *UniverseSource) LookupPTR(ctx context.Context, ip dnswire.IPv4) scanengine.Result {
	return s.LookupPTRAt(ctx, ip, time.Time{})
}

// LookupPTRAt evaluates one address at an instant.
func (s *UniverseSource) LookupPTRAt(ctx context.Context, ip dnswire.IPv4, at time.Time) scanengine.Result {
	if err := ctx.Err(); err != nil {
		return scanengine.Result{IP: ip, Err: err}
	}
	res := scanengine.Result{IP: ip}
	found := func(r netsim.Record) {
		if r.IP == ip {
			res.Found = true
			res.Name = r.HostName
		}
	}
	for _, n := range s.networks {
		if n.Config().Announced.Contains(ip) {
			n.RecordsAt(at, found)
			return res
		}
	}
	if f, ok := s.fillerFor[ip.Slash24()]; ok {
		f.Records(found)
	}
	return res
}
