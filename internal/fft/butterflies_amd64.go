package fft

// The middle radix-4 passes, in a strip and in a row: the arguments of
// their Go loops, size a multiple of 4 and tw the stage's own table.

//go:noescape
func radix4RowsAVX2(x []complex128, nb int, tw []complex128, size int)

//go:noescape
func radix4PassAVX2(x []complex128, tw []complex128, size int)

// The first passes that gather their inputs through the plan's perm and
// the last passes that store (and scale) into the destination: the
// arguments of their Go loops, which they cover whole.

//go:noescape
func base4GatherAVX2(dst, src []complex128, perm []int, tw []complex128)

//go:noescape
func radix3GatherAVX2(dst, src []complex128, perm []int, tw []complex128)

//go:noescape
func base4GatherPairAVX2(dst []complex128, re, im []float64, perm []int, tw []complex128)

//go:noescape
func radix3GatherPairAVX2(dst []complex128, re, im []float64, perm []int, tw []complex128)

//go:noescape
func radix4StoreAVX2(dst, x, tw []complex128, s float64, scaled bool)

//go:noescape
func radix2StoreAVX2(dst, x, tw []complex128, s float64, scaled bool)

//go:noescape
func base4GatherRowsAVX2(x []complex128, nb int, src []complex128, stride int, perm []int, tw []complex128)

//go:noescape
func radix3GatherRowsAVX2(x []complex128, nb int, src []complex128, stride int, perm []int, tw []complex128)

//go:noescape
func radix4StoreRowsAVX2(dst []complex128, stride int, x []complex128, nb int, tw []complex128, s float64, scaled bool)

//go:noescape
func radix2StoreRowsAVX2(dst []complex128, stride int, x []complex128, nb int, tw []complex128, s float64, scaled bool)

// The glue around the butterflies: the packing and reflection loops of
// the real transforms. Each covers the length the Go caller hands it
// (see the comment above each in butterflies_amd64.s); the caller
// finishes the rest with its Go loop.

//go:noescape
func unzipScaledAVX2(out0, out1 []float64, z []complex128, s float64)

//go:noescape
func mirrorPairsAVX2(out0, out1, a, m []complex128)

//go:noescape
func reflectAVX2(dst, src []complex128)
