package testutil

import "rdnsprivacy/internal/dnswire"

// ShippedFailureDecision is the name server's per-query failure draw as it
// was first written, before the servers took their verdicts from faultsim:
// splitmix64 over (seed, FNV-1a(name), n) against dropRate, re-mixed with
// 0x5EC0 against servFailRate, where n counts the earlier queries for name
// at the same server. docs/report-*-scale.txt and the seeded digests were
// generated with these verdicts; this copy is the fixed point the
// differential tests hold the shared fault model to.
func ShippedFailureDecision(seed int64, dropRate, servFailRate float64, name dnswire.Name, n uint64) (drop, servFail bool) {
	mix := func(words ...uint64) uint64 {
		h := uint64(0x9E3779B97F4A7C15)
		for _, w := range words {
			h ^= w
			h *= 0xBF58476D1CE4E5B9
			h ^= h >> 27
			h *= 0x94D049BB133111EB
			h ^= h >> 31
		}
		return h
	}
	unit := func(h uint64) float64 { return float64(h>>11) / float64(1<<53) }
	nameHash := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		nameHash ^= uint64(name[i])
		nameHash *= 1099511628211
	}
	h := mix(uint64(seed), nameHash, n)
	if dropRate > 0 && unit(h) < dropRate {
		return true, false
	}
	h = mix(h, 0x5EC0)
	if servFailRate > 0 && unit(h) < servFailRate {
		return false, true
	}
	return false, false
}
