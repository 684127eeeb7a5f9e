package cpu

// HasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// state.
func HasAVX2() bool
