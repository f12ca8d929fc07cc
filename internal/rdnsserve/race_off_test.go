//go:build !race

package rdnsserve

const raceEnabled = false
