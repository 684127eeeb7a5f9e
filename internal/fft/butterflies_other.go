//go:build !amd64

package fft

// Off amd64 there are no vector twins: every pass runs the Go loops.
// The names exist so the dispatch compiles; useAVX2 is false, so the
// glue twins, which cover only part of what their callers hand on, are
// never reached.

func radix4RowsAVX2(x []complex128, nb int, tw []complex128, size int) {
	radix4Rows(x, nb, tw, size)
}

func radix4PassAVX2(x []complex128, tw []complex128, size int) { radix4Pass(x, tw, size) }

func base4GatherAVX2(dst, src []complex128, perm []int, tw []complex128) {
	base4Gather(dst, src, perm, tw)
}

func radix3GatherAVX2(dst, src []complex128, perm []int, tw []complex128) {
	radix3Gather(dst, src, perm, tw)
}

func base4GatherPairAVX2(dst []complex128, re, im []float64, perm []int, tw []complex128) {
	base4GatherPair(dst, re, im, perm, tw)
}

func radix3GatherPairAVX2(dst []complex128, re, im []float64, perm []int, tw []complex128) {
	radix3GatherPair(dst, re, im, perm, tw)
}

func radix4StoreAVX2(dst, x, tw []complex128, s float64, scaled bool) {
	radix4Store(dst, x, tw, s, scaled)
}

func radix2StoreAVX2(dst, x, tw []complex128, s float64, scaled bool) {
	radix2Store(dst, x, tw, s, scaled)
}

func base4GatherRowsAVX2(x []complex128, nb int, src []complex128, stride int, perm []int, tw []complex128) {
	base4GatherRows(x, nb, src, stride, perm, tw)
}

func radix3GatherRowsAVX2(x []complex128, nb int, src []complex128, stride int, perm []int, tw []complex128) {
	radix3GatherRows(x, nb, src, stride, perm, tw)
}

func radix4StoreRowsAVX2(dst []complex128, stride int, x []complex128, nb int, tw []complex128, s float64, scaled bool) {
	radix4StoreRows(dst, stride, x, nb, tw, s, scaled)
}

func radix2StoreRowsAVX2(dst []complex128, stride int, x []complex128, nb int, tw []complex128, s float64, scaled bool) {
	radix2StoreRows(dst, stride, x, nb, tw, s, scaled)
}

func unzipScaledAVX2(out0, out1 []float64, z []complex128, s float64) {
	panic("fft: no AVX2 twins off amd64")
}

func mirrorPairsAVX2(out0, out1, a, m []complex128) { panic("fft: no AVX2 twins off amd64") }

func reflectAVX2(dst, src []complex128) { panic("fft: no AVX2 twins off amd64") }
