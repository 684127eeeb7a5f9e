//go:build !race

package fft

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
