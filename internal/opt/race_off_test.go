//go:build !race

package opt

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
