//go:build race

package rdnsserve

// raceEnabled: under the race detector sync.Pool drops a share of what it
// is given, so a pooled buffer's allocation budget cannot be measured.
const raceEnabled = true
