//go:build race

package opt

// raceEnabled reports that the race detector is active; the allocation
// regression tests skip under it because instrumentation changes the
// allocation profile.
const raceEnabled = true
