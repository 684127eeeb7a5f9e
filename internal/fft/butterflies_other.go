//go:build !amd64

package fft

// Off amd64 there are no vector twins: every pass runs the Go loops.
// The names exist so the dispatch in transform and stripPass compiles.

var useAVX2 = false

func hasAVX2() bool { return false }

func radix3RowsAVX2(x []complex128, nb int, tw []complex128) { radix3Rows(x, nb, tw) }

func base4RowsAVX2(x []complex128, nb int, tw []complex128) { base4Rows(x, nb, tw) }

func radix4RowsAVX2(x []complex128, nb int, tw []complex128, size int) {
	radix4Rows(x, nb, tw, size)
}

func radix2RowsAVX2(x []complex128, nb int, tw []complex128, size int) {
	radix2Rows(x, nb, tw, size)
}

func radix4PassAVX2(x []complex128, tw []complex128, size int) { radix4Pass(x, tw, size) }

func radix2PassAVX2(x []complex128, tw []complex128, size int) { radix2Pass(x, tw, size) }
