//go:build !race

package shard

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
