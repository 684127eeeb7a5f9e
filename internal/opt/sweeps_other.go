//go:build !amd64

package opt

// Off amd64 there are no vector twins and useAVX2 is false: the names
// exist so the dispatch compiles, and are never reached.

func descentAVX2(theta, dTheta, m, v, mask, gm, freeze []float64, k *descentK) {
	panic("opt: no AVX2 twins off amd64")
}

func logitsAVX2(x []float64, lo, hi, slope float64) { panic("opt: no AVX2 twins off amd64") }
