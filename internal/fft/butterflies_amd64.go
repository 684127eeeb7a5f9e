package fft

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

// The glue around the butterflies: the first radix-4 pass, the inverse
// scaling and the packing loops of the real transforms. Each covers the
// length the Go caller hands it (see the comment above each in
// butterflies_amd64.s); the caller finishes the rest with its Go loop.

//go:noescape
func base4PassAVX2(x []complex128, tw []complex128)

//go:noescape
func scaleAVX2(dst, src []complex128, s float64)

//go:noescape
func interleaveAVX2(z []complex128, re, im []float64)

//go:noescape
func unzipScaledAVX2(out0, out1 []float64, z []complex128, s float64)

//go:noescape
func packAVX2(z, g0, g1 []complex128)

//go:noescape
func packMirrorAVX2(z, g0, g1 []complex128)

//go:noescape
func mirrorPairsAVX2(out0, out1, a, m []complex128)
