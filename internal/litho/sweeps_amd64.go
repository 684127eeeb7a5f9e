package litho

// The AVX2 twins of sweeps_amd64.s. Each takes the arguments of its Go
// loop over a length that is a multiple of 4 (float64 slices) or 2
// (complex128 slices, the length of the first); the Go caller finishes
// the rest.

//go:noescape
func sigmoidsAVX2(dst, x []float64, a float64)

//go:noescape
func resistAVX2(g, terms, in, tg []float64, steep, dose, th float64)

//go:noescape
func intensityAVX2(out []float64, a []complex128, w float64)

//go:noescape
func mulRealConjAVX2(a []complex128, g []float64)
