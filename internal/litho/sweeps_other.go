//go:build !amd64

package litho

// Off amd64 there are no vector twins and useAVX2 is false: the names
// exist so the dispatch compiles, and are never reached.

func sigmoidsAVX2(dst, x []float64, a float64) { panic("litho: no AVX2 twins off amd64") }

func resistAVX2(g, terms, in, tg []float64, steep, dose, th float64) {
	panic("litho: no AVX2 twins off amd64")
}

func intensityAVX2(out []float64, a []complex128, w float64) { panic("litho: no AVX2 twins off amd64") }

func mulRealConjAVX2(a []complex128, g []float64) { panic("litho: no AVX2 twins off amd64") }
