package fft

import (
	"math"
	"math/rand"
	"testing"

	"mgsilt/internal/grid"
)

// sameBits reports whether two complex values are identical at the
// IEEE-754 bit level (so +0 vs -0 and NaN payloads all count).
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// bitsEqual reports whether two complex matrices are bit-identical.
func bitsEqual(a, b *grid.CMat) bool {
	if a.H != b.H || a.W != b.W {
		return false
	}
	for i, av := range a.Data {
		if !sameBits(av, b.Data[i]) {
			return false
		}
	}
	return true
}

// pupilMask builds the corner-layout row-support mask of a centred
// band of diameter p: live rows are [0, p/2) and [h-p/2, h) — the shape
// the Hopkins product spectra actually have.
func pupilMask(h, p int) []bool {
	live := make([]bool, h)
	for y := 0; y < h; y++ {
		if y < p/2 || y >= h-p/2 {
			live[y] = true
		}
	}
	return live
}

// randMaskedCMat builds a random matrix whose dead rows (per mask) are
// exactly +0 and whose live rows are dense Gaussian noise.
func randMaskedCMat(rng *rand.Rand, h, w int, live []bool) *grid.CMat {
	m := grid.NewCMat(h, w)
	for y := 0; y < h; y++ {
		if !live[y] {
			continue
		}
		copy(m.Row(y), randComplex(rng, w))
	}
	return m
}

// TestZeroRowTransform locks down the IEEE-754 property the pruned path
// relies on: a 1-D transform (either direction) of an all-(+0) buffer
// produces an all-(+0) buffer bit for bit, because every butterfly
// output is an additive chain rooted at an untwiddled +0 term. If an
// FFT kernel rewrite ever broke this, skipping dead rows would no
// longer be bit-identical to transforming them.
func TestZeroRowTransform(t *testing.T) {
	for _, n := range allSizes {
		for _, inverse := range []bool{false, true} {
			x := make([]complex128, n)
			planFor(n).transform(x, inverse)
			for i, v := range x {
				if math.Float64bits(real(v)) != 0 || math.Float64bits(imag(v)) != 0 {
					t.Fatalf("n=%d inverse=%v: zero transform produced %v (bits %#x,%#x) at %d",
						n, inverse, v, math.Float64bits(real(v)), math.Float64bits(imag(v)), i)
				}
			}
		}
	}
}

// TestInverse2DPrunedBitIdentical is the exactness contract of the
// tentpole: at every size (even and odd log2, through the parallel
// crossover) and for pupil-shaped, random, empty and full masks, the
// pruned inverse must match the dense inverse bit for bit.
func TestInverse2DPrunedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{8, 16, 24, 32, 48, 64, 96, 128, 256, 512} {
		masks := [][]bool{
			pupilMask(n, max(2, n/4)),
			pupilMask(n, n),       // fully live
			make([]bool, n),       // fully dead: all-zero matrix
			randomMask(rng, n, 3), // scattered live rows
		}
		for mi, live := range masks {
			m := randMaskedCMat(rng, n, n, live)
			want := m.Clone()
			Inverse2D(want)
			got := m.Clone()
			Inverse2DPruned(got, live)
			if !bitsEqual(got, want) {
				t.Fatalf("n=%d mask %d: pruned inverse differs from dense at the bit level", n, mi)
			}
		}
	}
}

// TestInverse2DPrunedRectangular covers H != W (mask length follows H).
func TestInverse2DPrunedRectangular(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	live := pupilMask(64, 16)
	m := randMaskedCMat(rng, 64, 128, live)
	want := m.Clone()
	Inverse2D(want)
	got := m.Clone()
	Inverse2DPruned(got, live)
	if !bitsEqual(got, want) {
		t.Fatal("rectangular pruned inverse differs from dense at the bit level")
	}
}

func randomMask(rng *rand.Rand, n, liveEvery int) []bool {
	live := make([]bool, n)
	for y := range live {
		live[y] = rng.Intn(liveEvery) == 0
	}
	return live
}

// TestBatch2DInversePruned checks the batched variant against the dense
// batched inverse at serial and parallel limits, above and below the
// parallel crossover.
func TestBatch2DInversePruned(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{32, 48, 64, 256} {
		for _, limit := range []int{1, 0} {
			live := pupilMask(n, max(2, n/4))
			const k = 5
			want := make([]*grid.CMat, k)
			got := make([]*grid.CMat, k)
			for i := 0; i < k; i++ {
				m := randMaskedCMat(rng, n, n, live)
				want[i] = m.Clone()
				got[i] = m.Clone()
			}
			xform2D{inverse: true}.batch(want, limit)
			Batch2DInversePruned(got, live, limit)
			for i := 0; i < k; i++ {
				if !bitsEqual(got[i], want[i]) {
					t.Fatalf("n=%d limit=%d: batched pruned inverse differs at matrix %d", n, limit, i)
				}
			}
		}
	}
}

// colsFirstForward is the independent dense reference for the
// band-limited forward: every column is gathered and run through the
// public 1-D Forward, then every row — the same per-buffer transforms
// and operand grouping Forward2DBand performs, without sharing its
// blocked column-pass code.
func colsFirstForward(m *grid.CMat) *grid.CMat {
	out := m.Clone()
	col := make([]complex128, out.H)
	for x := 0; x < out.W; x++ {
		for y := 0; y < out.H; y++ {
			col[y] = out.Row(y)[x]
		}
		Forward(col)
		for y := 0; y < out.H; y++ {
			out.Set(y, x, col[y])
		}
	}
	for y := 0; y < out.H; y++ {
		Forward(out.Row(y))
	}
	return out
}

// TestForward2DBandBitIdentical: at every size (even and odd log2,
// through the parallel crossover) and for pupil-shaped, scattered,
// empty and full masks, the live rows of the band-limited forward must
// match the dense columns-first forward bit for bit.
func TestForward2DBandBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, n := range []int{8, 16, 24, 32, 48, 64, 96, 128, 256, 512} {
		masks := [][]bool{
			pupilMask(n, max(2, n/4)),
			pupilMask(n, n), // fully live: plain columns-first transform
			make([]bool, n), // fully dead: only the column pass runs
			randomMask(rng, n, 3),
		}
		for mi, live := range masks {
			m := grid.NewCMat(n, n)
			copy(m.Data, randComplex(rng, n*n))
			want := colsFirstForward(m)
			got := m.Clone()
			Forward2DBand(got, live)
			for y := 0; y < n; y++ {
				if !live[y] {
					continue
				}
				for x, gv := range got.Row(y) {
					wv := want.Row(y)[x]
					if math.Float64bits(real(gv)) != math.Float64bits(real(wv)) ||
						math.Float64bits(imag(gv)) != math.Float64bits(imag(wv)) {
						t.Fatalf("n=%d mask %d: band forward differs from dense at row %d col %d", n, mi, y, x)
					}
				}
			}
		}
	}
}

// TestForward2DBandAccuracy pins the documented caveat: the
// columns-first grouping agrees with the rows-first Forward2D only to
// floating-point accuracy, and that accuracy must stay at rounding
// level (a broken pass order would diverge wildly, not subtly).
func TestForward2DBandAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	n := 64
	m := grid.NewCMat(n, n)
	copy(m.Data, randComplex(rng, n*n))
	rowsFirst := m.Clone()
	Forward2D(rowsFirst)
	colsFirst := m.Clone()
	Forward2DBand(colsFirst, pupilMask(n, n))
	var maxDiff, scale float64
	for i, v := range colsFirst.Data {
		w := rowsFirst.Data[i]
		if d := cmplxAbs(v - w); d > maxDiff {
			maxDiff = d
		}
		if a := cmplxAbs(w); a > scale {
			scale = a
		}
	}
	if maxDiff > 1e-11*scale {
		t.Fatalf("pass orders diverge beyond rounding: max |Δ| = %g at scale %g", maxDiff, scale)
	}
}

func cmplxAbs(v complex128) float64 { return math.Hypot(real(v), imag(v)) }

// TestBatch2DForwardBand checks the batched variant against the
// single-matrix path at serial and parallel limits, above and below the
// parallel crossover.
func TestBatch2DForwardBand(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, n := range []int{32, 48, 64, 256} {
		for _, limit := range []int{1, 0} {
			live := pupilMask(n, max(2, n/4))
			const k = 5
			want := make([]*grid.CMat, k)
			got := make([]*grid.CMat, k)
			for i := 0; i < k; i++ {
				m := grid.NewCMat(n, n)
				copy(m.Data, randComplex(rng, n*n))
				want[i] = m.Clone()
				got[i] = m.Clone()
			}
			for i := 0; i < k; i++ {
				Forward2DBand(want[i], live)
			}
			Batch2DForwardBand(got, live, limit)
			for i := 0; i < k; i++ {
				for y, ok := range live {
					if !ok {
						continue
					}
					for x, gv := range got[i].Row(y) {
						wv := want[i].Row(y)[x]
						if math.Float64bits(real(gv)) != math.Float64bits(real(wv)) ||
							math.Float64bits(imag(gv)) != math.Float64bits(imag(wv)) {
							t.Fatalf("n=%d limit=%d: batched band forward differs at matrix %d row %d", n, limit, i, y)
						}
					}
				}
			}
		}
	}
}

func TestForward2DBandMaskLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mask length mismatch")
		}
	}()
	Forward2DBand(grid.NewCMat(8, 8), make([]bool, 4))
}

func TestInverse2DPrunedMaskLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mask length mismatch")
		}
	}()
	Inverse2DPruned(grid.NewCMat(8, 8), make([]bool, 4))
}

// benchSizes are the grids the flows transform: 24 and 48 are the reduced
// grids of N=64 and N=128 tiles, 48 and 96 those of the stretch-2 coarse
// grids, 32, 64 and 128 the power-of-two grids they replace (128 is also
// the full N=128 tile), 256 and 512 the inspected clips.
var benchSizes = []int{24, 32, 48, 64, 96, 128, 256, 512}

// BenchmarkInversePruned compares the dense inverse with the pruned
// inverse under the pupil-support live fraction the Hopkins hot path
// sees at tile scale (p ≈ n/4.5 live rows out of n).
func BenchmarkInversePruned(b *testing.B) {
	rng := rand.New(rand.NewSource(45))
	for _, n := range benchSizes {
		live := pupilMask(n, max(2, 2*(int(math.Ceil(float64(n)/21.3*1.8))+1)))
		src := randMaskedCMat(rng, n, n, live)
		m := grid.NewCMat(n, n)
		b.Run("dense/"+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(m.Data, src.Data)
				Inverse2D(m)
			}
		})
		b.Run("pruned/"+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(m.Data, src.Data)
				Inverse2DPruned(m, live)
			}
		})
	}
}

// BenchmarkForwardBand compares the dense forward with the band-limited
// columns-first forward under the adjoint-pass live fraction.
func BenchmarkForwardBand(b *testing.B) {
	rng := rand.New(rand.NewSource(49))
	for _, n := range benchSizes {
		live := pupilMask(n, max(2, 2*(int(math.Ceil(float64(n)/21.3*1.8))+1)))
		src := grid.NewCMat(n, n)
		copy(src.Data, randComplex(rng, n*n))
		m := grid.NewCMat(n, n)
		b.Run("dense/"+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(m.Data, src.Data)
				Forward2D(m)
			}
		})
		b.Run("band/"+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(m.Data, src.Data)
				Forward2DBand(m, live)
			}
		})
	}
}
