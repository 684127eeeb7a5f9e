package opt

// The AVX2 twins of sweeps_amd64.s. Each takes the arguments of its Go
// loop over a length that is a multiple of 4; the Go caller finishes the
// rest.

//go:noescape
func descentAVX2(theta, dTheta, m, v, mask, gm, freeze []float64, k *descentK)

//go:noescape
func logitsAVX2(x []float64, lo, hi, slope float64)
