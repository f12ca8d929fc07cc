package vantage

import (
	"context"
	"fmt"
	"sort"
	"time"

	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/faultsim"
	"rdnsprivacy/internal/scan"
	"rdnsprivacy/internal/scanengine"
)

// lagSalt mixes the stale-view decision away from the fault chain: the
// same (seed, name) must be able to lag without also dropping.
const lagSalt = 0x1A66

// FaultError is the terminal error a vantage's lens reports for a record
// every attempt lost — it surfaces in the sweep's Stats.Errors.
type FaultError struct {
	// IP is the affected address; Outcome the last attempt's verdict.
	IP      dnswire.IPv4
	Outcome faultsim.Outcome
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("vantage fault: %s %s", e.IP, e.Outcome)
}

// lens is one vantage's view of the universe: a ShardSource wrapping the
// campaign's UniverseSource that loses, corrupts-to-error, and time-lags
// records per the vantage's profile before the engine sees them.
//
// The engine's bulk path has no per-address retries (see
// scanengine.ShardSource), so the lens makes the vantage's Attempts
// itself: a record dropped on attempt 0 may pass on attempt 1, exactly
// like a wire-path retry through the injector — attempt numbers advance
// per day so retries never replay a prior day's verdict. Everything is a pure function of (vantage seed, reverse
// question name, day, attempt), so sweeps replay bit-identically
// regardless of worker scheduling.
type lens struct {
	src *scan.UniverseSource
	v   *Vantage
	met *metrics
}

func newLens(src *scan.UniverseSource, v *Vantage, met *metrics) *lens {
	return &lens{src: src, v: v, met: met}
}

// Targets delegates to the underlying source.
func (l *lens) Targets() []dnswire.Prefix { return l.src.Targets() }

// LookupPTR implements scanengine.Source. The engine prefers the bulk
// path; spot checks see the vantage's current view without faults.
func (l *lens) LookupPTR(ctx context.Context, ip dnswire.IPv4) scanengine.Result {
	return l.src.LookupPTR(ctx, ip)
}

// ScanShard implements scanengine.ShardSource: enumerate the shard at
// the snapshot instant (and at the stale instant when the vantage lags),
// pick each address's view, then roll the fault chain per attempt.
func (l *lens) ScanShard(ctx context.Context, shard dnswire.Prefix, at time.Time, emit func(scanengine.Result)) error {
	cur := make(map[dnswire.IPv4]dnswire.Name)
	if err := l.src.ScanShard(ctx, shard, at, func(r scanengine.Result) {
		if r.Found {
			cur[r.IP] = r.Name
		}
	}); err != nil {
		return err
	}
	view := cur
	var stale map[dnswire.IPv4]dnswire.Name
	if l.v.LagRate > 0 {
		stale = make(map[dnswire.IPv4]dnswire.Name)
		staleAt := at.Add(-time.Duration(l.v.lagDays()) * 24 * time.Hour)
		if err := l.src.ScanShard(ctx, shard, staleAt, func(r scanengine.Result) {
			if r.Found {
				stale[r.IP] = r.Name
			}
		}); err != nil {
			return err
		}
	}

	// The union, sorted: lag can surface records the current view no
	// longer has, and a deterministic walk keeps per-shard effects (and
	// metric counts) schedule-independent.
	ips := make([]dnswire.IPv4, 0, len(cur))
	for ip := range cur {
		ips = append(ips, ip)
	}
	for ip := range stale {
		if _, ok := cur[ip]; !ok {
			ips = append(ips, ip)
		}
	}
	sort.Slice(ips, func(i, j int) bool { return ips[i].Uint32() < ips[j].Uint32() })

	day := uint64(at.Unix() / 86400)
	attempts := uint64(l.v.attempts())
	for _, ip := range ips {
		qname := dnswire.ReverseName(ip)
		if stale != nil && faultsim.Roll(l.v.Seed, qname, lagSalt, day) < l.v.LagRate {
			view = stale
			l.met.lagged.Inc()
		} else {
			view = cur
		}
		name, present := view[ip]
		if !present {
			continue // the chosen view has nothing here: plain absence
		}
		out := faultsim.OutcomePass
		if p := faultsim.ProfileFor(l.v.Faults, ip); p != nil {
			for k := uint64(0); k < attempts; k++ {
				out = p.Sample(l.v.Seed, qname, day*attempts+k)
				if out == faultsim.OutcomePass {
					break
				}
				l.met.faults.Inc()
			}
		}
		if out == faultsim.OutcomePass {
			emit(scanengine.Result{IP: ip, Name: name, Found: true})
		} else {
			l.met.lostRecords.Inc()
			emit(scanengine.Result{IP: ip, Err: &FaultError{IP: ip, Outcome: out}})
		}
	}
	return ctx.Err()
}
