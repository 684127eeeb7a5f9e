//go:build !race

package pipeline

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
