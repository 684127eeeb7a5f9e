//go:build !amd64

package cpu

// HasAVX2 is false off amd64: there are no vector twins to run.
func HasAVX2() bool { return false }
