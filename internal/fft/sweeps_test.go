package fft

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mgsilt/internal/grid"
)

// sweepTwin is one element-wise loop of the transforms' glue, run
// through its dispatching Go function: with useAVX2 cleared that is the
// reference loop, with it set the twin plus the loop's tail.
type sweepTwin struct {
	name string
	// setup lays out the loop's inputs, n elements drawn from x (at
	// least 4n+16 long), and its outputs; kernel runs the loop once and
	// out returns everything it wrote.
	setup func(x []complex128, n int) (kernel func(), out func() []complex128)
}

// reals is the real parts of x.
func reals(x []complex128) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = real(v)
	}
	return out
}

// joined carries float outputs as the real and imaginary parts of one
// complex slice, for firstDiff.
func joined(re, im []float64) []complex128 {
	out := make([]complex128, len(re))
	for i := range out {
		out[i] = complex(re[i], im[i])
	}
	return out
}

// outputs returns an out function for complex outputs.
func outputs(zs ...[]complex128) func() []complex128 {
	return func() []complex128 {
		var out []complex128
		for _, z := range zs {
			out = append(out, z...)
		}
		return out
	}
}

var sweepTwins = []sweepTwin{
	{"unzipScaled", func(x []complex128, n int) (func(), func() []complex128) {
		out0, out1 := make([]float64, n), make([]float64, n)
		return func() { unzipScaled(out0, out1, x[:n], real(x[n])) },
			func() []complex128 { return joined(out0, out1) }
	}},
	{"reflectRow", func(x []complex128, n int) (func(), func() []complex128) {
		dst := make([]complex128, n)
		return func() { reflectRow(dst, x[:n]) }, outputs(dst)
	}},
	{"splitPacked", func(x []complex128, n int) (func(), func() []complex128) {
		// A packed row of 2n+2 points, its columns 0…n−1 split: the
		// mirrors of the columns read are distinct from them.
		out0, out1 := make([]complex128, n), make([]complex128, n)
		return func() { splitPacked(out0, out1, x[:2*n+2]) }, outputs(out0, out1)
	}},
	{"hermitianRow", func(x []complex128, n int) (func(), func() []complex128) {
		// Band columns lo…lo+n−1 of a (2n+3)-wide spectrum, from column 0
		// (its own mirror) and from column 3.
		ws := 2*n + 3
		row0, row3 := make([]complex128, n), make([]complex128, n)
		return func() {
			hermitianRow(row0, x[:ws], x[ws:2*ws], 0)
			hermitianRow(row3, x[:ws], x[ws:2*ws], 3)
		}, outputs(row0, row3)
	}},
}

// checkSweep runs tw on x with and without the twins and reports the
// first output where they differ.
func checkSweep(t *testing.T, tw sweepTwin, x []complex128, n int) {
	t.Helper()
	defer func(v bool) { useAVX2 = v }(useAVX2)
	var res [2][]complex128
	for i, vec := range []bool{false, true} {
		useAVX2 = vec
		kernel, out := tw.setup(x, n)
		kernel()
		res[i] = out()
	}
	got, want := res[1], res[0]
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("%s n=%d: output %d: vector %v, Go %v", tw.name, n, i, got[i], want[i])
	}
}

// TestSweepTwinsBitIdentical holds each glue loop's twin to its Go loop
// at lengths 0–17, so every tail is reached, on inputs carrying ±0,
// subnormals, overflowing magnitudes and ±Inf, then with NaNs mixed in.
func TestSweepTwinsBitIdentical(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(41))
	for _, tw := range sweepTwins {
		for n := 0; n <= 17; n++ {
			for rep := 0; rep < 8; rep++ {
				x := hostileData(rng, 4*n+16, rep%2 == 1)
				if rep >= 6 {
					for i := 0; i < 3; i++ {
						k := rng.Intn(len(x))
						x[k] = complex(real(x[k]), math.NaN())
					}
				}
				checkSweep(t, tw, x, n)
			}
		}
	}
}

// TestReflectColumnsTwinBitIdentical: the conjugate reflection of the
// real forward transform gives the same bits with the twin and with the
// Go loop, on every band half-width of every width up to 34, so the
// reflected block starts at, before and past w/2+1 and has every length
// parity, over heights with and without a self-mirrored middle row.
// NaNs keep their payload: the twin only flips a sign bit, as Go's
// negation does.
func TestReflectColumnsTwinBitIdentical(t *testing.T) {
	needAVX2(t)
	defer func(v bool) { useAVX2 = v }(useAVX2)
	rng := rand.New(rand.NewSource(4343))
	for w := 1; w <= 34; w++ {
		for _, h := range []int{1, 2, 3, 6} {
			src := &grid.CMat{H: h, W: w, Data: withNaNs(rng, hostileData(rng, h*w, true), 3)}
			for b := 0; b <= w/2; b++ {
				var out [2]*grid.CMat
				for i, vec := range []bool{false, true} {
					useAVX2 = vec
					out[i] = src.Clone()
					reflectColumns(out[i], b, 0, h)
				}
				for k := range out[0].Data {
					g, want := out[1].Data[k], out[0].Data[k]
					if math.Float64bits(real(g)) != math.Float64bits(real(want)) || math.Float64bits(imag(g)) != math.Float64bits(imag(want)) {
						t.Fatalf("w=%d h=%d b=%d: entry (%d, %d): vector %v, Go %v", w, h, b, k/w, k%w, g, want)
					}
				}
			}
		}
	}
}

// TestRealTransformsTwinBitIdentical: the real forward transform and
// its real-output inverse give the same bits with the twins and with
// the Go loops, at every band half-width class, on heights with a lone
// last row and without.
func TestRealTransformsTwinBitIdentical(t *testing.T) {
	needAVX2(t)
	defer func(v bool) { useAVX2 = v }(useAVX2)
	rng := rand.New(rand.NewSource(4141))
	for _, n := range []int{2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128} {
		src := grid.NewMat(n, n)
		for i := range src.Data {
			src.Data[i] = hostileFloat(rng, false)
		}
		spec := signedZeroCMat(rng, n, n)
		for _, b := range []int{0, 1, n / 4, n/2 - 1, n / 2} {
			if b < 0 {
				continue
			}
			var fwd [2]*grid.CMat
			var inv [2]*grid.Mat
			for i, vec := range []bool{false, true} {
				useAVX2 = vec
				fwd[i] = ForwardReal2DBand(grid.NewCMat(n, n), src, b)
				inv[i] = grid.NewMat(n, n)
				InverseRealBand(inv[i], spec, b, 0.75)
			}
			for x := 0; x < n; x++ {
				if x > b && x < n-b {
					continue // outside the band: unspecified
				}
				for y := 0; y < n; y++ {
					g, w := fwd[1].Row(y)[x], fwd[0].Row(y)[x]
					if !sameFloat(real(g), real(w)) || !sameFloat(imag(g), imag(w)) {
						t.Fatalf("n=%d b=%d: forward (%d,%d): vector %v, Go %v", n, b, y, x, g, w)
					}
				}
			}
			for i := range inv[0].Data {
				if !sameFloat(inv[1].Data[i], inv[0].Data[i]) {
					t.Fatalf("n=%d b=%d: inverse %d: vector %v, Go %v", n, b, i, inv[1].Data[i], inv[0].Data[i])
				}
			}
		}
	}
}

// BenchmarkSweeps times each glue loop both ways on the same data, 128
// elements (the row of an N = 128 tile). Only the path differs between
// go and avx2.
func BenchmarkSweeps(b *testing.B) {
	const n = 128
	x := randComplex(rand.New(rand.NewSource(7)), 4*n+16)
	for _, tw := range sweepTwins {
		for _, vec := range []bool{false, true} {
			path := map[bool]string{false: "go", true: "avx2"}[vec]
			b.Run(fmt.Sprintf("%s/%s", tw.name, path), func(b *testing.B) {
				if vec {
					needAVX2(b)
				}
				defer func(v bool) { useAVX2 = v }(useAVX2)
				useAVX2 = vec
				kernel, _ := tw.setup(x, n)
				for i := 0; i < b.N; i++ {
					kernel()
				}
			})
		}
	}
}
