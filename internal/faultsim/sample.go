package faultsim

import (
	"rdnsprivacy/internal/dnswire"
	"rdnsprivacy/internal/telemetry"
)

// Outcome is a profile's steady-state verdict on one query: the
// hash-rate portion of the injector's decision (Loss, ServFailRate,
// RefusedRate), without the stateful parts (outage windows, token
// buckets, latency). It is what a bulk scan path that never touches the
// wire needs to agree with the wire injector on.
type Outcome int

// Outcomes, in the order the injector evaluates them.
const (
	// OutcomePass answers normally.
	OutcomePass Outcome = iota
	// OutcomeDrop silently drops the query (a timeout to the client).
	OutcomeDrop
	// OutcomeServFail answers SERVFAIL.
	OutcomeServFail
	// OutcomeRefused answers REFUSED.
	OutcomeRefused
)

// String names the outcome for reports.
func (o Outcome) String() string {
	switch o {
	case OutcomeDrop:
		return "drop"
	case OutcomeServFail:
		return "servfail"
	case OutcomeRefused:
		return "refused"
	}
	return "pass"
}

// Sample classifies one (name, attempt) query under the profile's
// hash-based rates — the exact construction Injector uses for its
// steady-state decisions, exported so enumeration-path consumers
// (internal/vantage's fault lens) stay bit-compatible with the wire
// injector: away from windows and throttles, an Injector seeing name at
// attempt n returns the same verdict Sample does. Pure and
// goroutine-safe; the profile's Prefix is not consulted (callers route
// queries to profiles themselves).
func (p Profile) Sample(seed int64, name dnswire.Name, attempt uint64) Outcome {
	out, _ := p.sampleHash(telemetry.Mix64(uint64(seed), nameHash(name), attempt))
	return out
}

// sampleHash evaluates the rate chain from the first mixed hash, and
// returns the verdict plus the hash state after the chain — decide
// continues from it for the spike roll.
func (p Profile) sampleHash(h uint64) (Outcome, uint64) {
	if p.Loss > 0 && telemetry.UnitFloat(h) < p.Loss {
		return OutcomeDrop, h
	}
	h = telemetry.Mix64(h, 0x5EC0)
	if p.ServFailRate > 0 && telemetry.UnitFloat(h) < p.ServFailRate {
		return OutcomeServFail, h
	}
	h = telemetry.Mix64(h, 0xEF01)
	if p.RefusedRate > 0 && telemetry.UnitFloat(h) < p.RefusedRate {
		return OutcomeRefused, h
	}
	return OutcomePass, h
}

// Roll returns a deterministic uniform value in [0,1) for one
// (seed, name, extra words) tuple — the injector's splitmix/FNV
// construction, exported for consumers that need auxiliary per-query
// randomness (internal/vantage's stale-view decisions) without inventing
// a second hash scheme. Distinct salt words give independent rolls.
func Roll(seed int64, name dnswire.Name, words ...uint64) float64 {
	h := telemetry.Mix64(uint64(seed), nameHash(name))
	for _, w := range words {
		h = telemetry.Mix64(h, w)
	}
	return telemetry.UnitFloat(h)
}

// ProfileFor returns the most specific profile whose prefix contains ip,
// or nil — the same overlap rule the injector applies to question names,
// for callers that route by address instead of wire messages.
func ProfileFor(profiles []Profile, ip dnswire.IPv4) *Profile {
	var best *Profile
	for i := range profiles {
		p := &profiles[i]
		if !p.Prefix.Contains(ip) {
			continue
		}
		if best == nil || p.Prefix.Bits > best.Prefix.Bits {
			best = p
		}
	}
	return best
}
