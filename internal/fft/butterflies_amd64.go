package fft

// useAVX2 routes the six hottest butterfly loops to their AVX2 twins in
// butterflies_amd64.s, decided once from CPUID. Each twin performs the
// IEEE operations of its Go loop in the same order, so the choice moves
// no result bit; the tests clear it to run the Go loops.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// state.
func hasAVX2() bool

// The twins take the arguments of their Go loops and the same plan
// stages: size a multiple of 4 (radix-4) or 2 (radix-2), tw the stage's
// own table.

//go:noescape
func radix3RowsAVX2(x []complex128, nb int, tw []complex128)

//go:noescape
func base4RowsAVX2(x []complex128, nb int, tw []complex128)

//go:noescape
func radix4RowsAVX2(x []complex128, nb int, tw []complex128, size int)

//go:noescape
func radix2RowsAVX2(x []complex128, nb int, tw []complex128, size int)

//go:noescape
func radix4PassAVX2(x []complex128, tw []complex128, size int)

//go:noescape
func radix2PassAVX2(x []complex128, tw []complex128, size int)
