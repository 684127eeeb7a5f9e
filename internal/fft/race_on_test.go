//go:build race

package fft

// raceEnabled reports that the race detector is active; the allocation
// gate skips under it because instrumentation changes the allocation
// profile.
const raceEnabled = true
