// Package netsim models the populations of networks the paper measures:
// people and their devices, the networks they join (academic, ISP,
// enterprise, government), the schedules that govern when devices are
// present (workdays, campus life, holidays, COVID-19 lockdowns), and the
// operator-side infrastructure (DHCP + IPAM + authoritative rDNS) that
// turns presence into globally visible PTR records.
//
// This package substitutes for the real Internet population the paper
// observed through OpenINTEL, Rapid7 and its own supplemental measurement.
// Everything is deterministic under a seed: presence decisions derive from
// hashes of (seed, device, date), never from a shared mutable RNG, so any
// moment of any simulated day can be evaluated independently — the property
// that lets two years of daily snapshots coexist with packet-level
// event-driven measurement windows.
package netsim

import (
	"time"

	"rdnsprivacy/internal/telemetry"
)

// FNV-1a constants.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hash64 hashes a sequence of values into a uint64 with FNV-1a. It is
// allocation-free: presence evaluation calls it hundreds of millions of
// times across a longitudinal campaign.
func hash64(parts ...uint64) uint64 {
	return hashMore(fnvOffset, parts...)
}

// hashMore extends the FNV-1a state h by more values. FNV-1a consumes its
// input in order, so hashMore(hash64(a, b), c, d) == hash64(a, b, c, d): a
// caller drawing many hashes that share a prefix hashes the prefix once.
func hashMore(h uint64, parts ...uint64) uint64 {
	for _, p := range parts {
		for shift := 56; shift >= 0; shift -= 8 {
			h ^= p >> shift & 0xFF
			h *= fnvPrime
		}
	}
	return h
}

// hashString folds a string into a uint64 for use as a hash part.
func hashString(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// dayNumber numbers days since the simulation epoch so that hash inputs
// are stable integers. Times are interpreted in the study's local timezone
// (see Universe.Location).
func dayNumber(t time.Time) uint64 {
	return uint64(t.Unix()/86400) + 1<<20
}

// chance draws a deterministic Bernoulli decision from a hash.
func chance(p float64, h uint64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return telemetry.UnitFloat(h) < p
}

// spread maps a hash to a duration in [0, span).
func spread(span time.Duration, h uint64) time.Duration {
	if span <= 0 {
		return 0
	}
	return time.Duration(telemetry.UnitFloat(h) * float64(span))
}
