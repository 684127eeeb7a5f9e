//go:build race

package shard

// raceEnabled reports that the race detector is active; the allocation
// gates skip under it because instrumentation changes the allocation
// profile.
const raceEnabled = true
