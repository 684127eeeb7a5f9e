package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"mgsilt/internal/grid"
	"mgsilt/internal/parallel"
)

func randMat(rng *rand.Rand, h, w int) *grid.Mat {
	m := grid.NewMat(h, w)
	for i := range m.Data {
		m.Data[i] = rng.Float64()*2 - 1
	}
	return m
}

// TestForwardReal2DMatchesComplex checks the packed real-input path
// against the reference complex embedding at every supported shape,
// including 1×n, 2×n and rectangular grids.
func TestForwardReal2DMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	shapes := [][2]int{
		{1, 8}, {2, 2}, {2, 16}, {4, 4}, {8, 8}, {8, 32},
		{16, 16}, {32, 8}, {64, 64}, {128, 128},
		{1, 6}, {3, 3}, {3, 12}, {6, 6}, {12, 8}, {24, 48}, {48, 48}, {96, 96},
	}
	const tol = 1e-12
	for _, s := range shapes {
		h, w := s[0], s[1]
		src := randMat(rng, h, w)
		want := complexOf(src)
		Forward2D(want)
		got := ForwardReal2D(grid.NewCMat(h, w), src)
		var maxDiff, maxMag float64
		for i := range want.Data {
			if d := cmplx.Abs(got.Data[i] - want.Data[i]); d > maxDiff {
				maxDiff = d
			}
			if m := cmplx.Abs(want.Data[i]); m > maxMag {
				maxMag = m
			}
		}
		if maxDiff > tol*maxMag {
			t.Errorf("%dx%d: ForwardReal2D rel error %.3g", h, w, maxDiff/maxMag)
		}
	}
}

// TestForwardReal2DHermitianSymmetry verifies the defining property of
// a real-input spectrum: F[v][x] == conj(F[(H−v)%H][(W−x)%W]) for every
// element — including the reflected half that ForwardReal2D fills
// without transforming — at 2^k and 3·2^k sides, where the packed-row
// split must mirror j = 0 onto itself.
func TestForwardReal2DHermitianSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, n := range []int{32, 3, 12, 48, 96} {
		src := randMat(rng, n, n)
		f := ForwardReal2D(grid.NewCMat(n, n), src)
		h, w := f.H, f.W
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				a := f.Row(y)[x]
				b := cmplx.Conj(f.Row((h - y) % h)[(w-x)%w])
				if cmplx.Abs(a-b) > 1e-9 {
					t.Fatalf("n=%d: Hermitian violation at (%d,%d): %v vs %v", n, y, x, a, b)
				}
			}
		}
	}
}

// TestForwardReal2DRoundTrip runs Inverse2D on the real-input spectrum
// and expects the original real matrix back.
func TestForwardReal2DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{64, 3, 24, 48} {
		src := randMat(rng, n, n)
		f := ForwardReal2D(grid.NewCMat(n, n), src)
		Inverse2D(f)
		for i, v := range f.Data {
			if d := cmplx.Abs(v - complex(src.Data[i], 0)); d > 1e-12 {
				t.Fatalf("n=%d: round-trip mismatch at %d: |Δ|=%.3g", n, i, d)
			}
		}
	}
}

// TestForwardReal2DWorkerBitIdentity pins the parallel contract: the
// spectrum above the crossover must be bit-identical at every worker
// count, because every row pair, column block and reflected row is
// owned by exactly one goroutine.
func TestForwardReal2DWorkerBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	n := 256 // many times parallel.Grain
	src := randMat(rng, n, n)

	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	parallel.SetWorkers(1)
	ref := ForwardReal2D(grid.NewCMat(n, n), src)

	for _, w := range []int{2, 3, 8} {
		parallel.SetWorkers(w)
		got := ForwardReal2D(grid.NewCMat(n, n), src)
		for i := range ref.Data {
			if got.Data[i] != ref.Data[i] {
				t.Fatalf("workers=%d: spectrum not bit-identical at %d", w, i)
			}
		}
	}
}

// TestForwardReal2DBandBitIdentical: inside the band — columns 0..b and
// W−b..W−1, every row — the band-aware transform writes the bits of the
// full one, at every size (through the parallel crossover, at several
// worker counts), on rectangular shapes and into a dst full of garbage.
func TestForwardReal2DBandBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	shapes := [][2]int{{8, 32}, {32, 8}, {64, 128}, {256, 64}, {2, 16}, {3, 12}, {48, 96}, {96, 24}}
	for n := 8; n <= 512; n *= 2 {
		shapes = append(shapes, [2]int{n, n}, [2]int{3 * n / 2, 3 * n / 2})
	}
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	parallel.SetWorkers(1)
	for _, sh := range shapes {
		h, w := sh[0], sh[1]
		src := randMat(rng, h, w)
		workers := []int{1}
		if h*w >= 2*parallel.Grain {
			workers = []int{1, 2, 3, 4}
		}
		litho := max(1, w/13) // the B of the litho spectra: 10 at 128, 5 at 64
		bands := []int{0, 1, litho, 2 * litho, w/2 - 1, w / 2}
		if w == 128 {
			// The B = 21 of the coarse grid's set and its 2B: two and three
			// strips' worth of band columns.
			bands = append(bands, 21, 42)
		}
		for _, nw := range workers {
			parallel.SetWorkers(nw)
			want := ForwardReal2D(grid.NewCMat(h, w), src)
			for _, b := range bands {
				got := grid.NewCMat(h, w)
				for i := range got.Data {
					got.Data[i] = complex(math.NaN(), math.Inf(-1))
				}
				ForwardReal2DBand(got, src, b)
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						if min(x, w-x) > b {
							continue
						}
						if g, r := got.Row(y)[x], want.Row(y)[x]; !sameBits(g, r) {
							t.Fatalf("%dx%d b=%d workers=%d: (%d,%d) = %v, ForwardReal2D gives %v", h, w, b, nw, y, x, g, r)
						}
					}
				}
			}
		}
	}
}

func TestForwardReal2DBandRangePanics(t *testing.T) {
	for _, b := range []int{-1, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for band %d on 8 columns", b)
				}
			}()
			ForwardReal2DBand(grid.NewCMat(8, 8), grid.NewMat(8, 8), b)
		}()
	}
}

func TestForwardReal2DShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	ForwardReal2D(grid.NewCMat(4, 4), grid.NewMat(8, 8))
}

func BenchmarkForwardReal2D256(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	src := randMat(rng, 256, 256)
	dst := grid.NewCMat(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ForwardReal2D(dst, src)
	}
}

// BenchmarkForwardReal2DBand times the three real forward transforms of
// one solver evaluation at N=128 — F(mask) (b = B = 10), F(g) (b = 2B)
// and the M = 48 intensity (b = 2B) — beside the full transforms.
func BenchmarkForwardReal2DBand(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, c := range [][2]int{{128, 10}, {128, 21}, {128, 64}, {48, 21}, {48, 24}} {
		n, band := c[0], c[1]
		src := randMat(rng, n, n)
		dst := grid.NewCMat(n, n)
		b.Run(fmt.Sprintf("%d/b=%d", n, band), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ForwardReal2DBand(dst, src, band)
			}
		})
	}
}

// embeddedBand is the reference of InverseRealBand: the ±b band of src
// zero-padded (or cropped) onto an h×w grid by frequency, everything
// else +0.
func embeddedBand(src *grid.CMat, b, h, w int) *grid.CMat {
	out := grid.NewCMat(h, w)
	for fy := -b; fy <= b; fy++ {
		for fx := -b; fx <= b; fx++ {
			out.Set((fy+h)%h, (fx+w)%w, src.Row((fy + src.H) % src.H)[(fx+src.W)%src.W])
		}
	}
	return out
}

// TestInverseRealBand checks InverseRealBand against real(Inverse2D) of
// the embedded band, scaled: into larger, smaller and equal grids, 2^k
// and 3·2^k, square and rectangular, with the band reaching the Nyquist
// frequency on the same grid. The spectrum is not Hermitian, entries
// outside the band are NaN (they must not be read), and dst starts as
// garbage (every entry must be written). Above the parallel crossover
// the output is bit-identical at every worker count.
func TestInverseRealBand(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	parallel.SetWorkers(1)
	for _, c := range []struct{ sh, sw, h, w, b int }{
		{48, 48, 128, 128, 20}, // upsampling a reduced grid's intensity
		{128, 128, 48, 48, 20}, // low-passing onto the reduced grid
		{48, 48, 128, 128, 10}, // the gradient's final inverse
		{96, 96, 128, 128, 42},
		{24, 24, 64, 64, 5},
		{48, 48, 48, 48, 24}, // the whole spectrum, Nyquist included
		{64, 64, 64, 64, 32},
		{3, 3, 3, 3, 1},
		{3, 3, 12, 6, 1},
		{12, 24, 48, 16, 5},      // rectangular both sides
		{64, 64, 32, 64, 0},      // DC alone
		{128, 128, 128, 128, 21}, // two strips' worth of band columns
		{128, 128, 128, 128, 42}, // three
	} {
		name := fmt.Sprintf("%dx%d→%dx%d/b=%d", c.sh, c.sw, c.h, c.w, c.b)
		src := randCMat(rng, c.sh, c.sw)
		for y := 0; y < c.sh; y++ {
			for x := 0; x < c.sw; x++ {
				if min(y, c.sh-y) > c.b || min(x, c.sw-x) > c.b {
					src.Set(y, x, complex(math.NaN(), math.NaN()))
				}
			}
		}
		const scale = 1.75
		ref := embeddedBand(src, c.b, c.h, c.w)
		Inverse2D(ref)
		var want *grid.Mat
		for _, nw := range []int{1, 2, 3, 4} {
			parallel.SetWorkers(nw)
			got := grid.NewMat(c.h, c.w)
			for i := range got.Data {
				got.Data[i] = math.Inf(1)
			}
			InverseRealBand(got, src, c.b, scale)
			if want == nil {
				want = got
				var maxDiff, maxMag float64
				for i, v := range ref.Data {
					maxDiff = max(maxDiff, math.Abs(got.Data[i]-scale*real(v)))
					maxMag = max(maxMag, math.Abs(scale*real(v)))
				}
				if !(maxDiff <= 1e-12*maxMag) {
					t.Errorf("%s: off real(Inverse2D) of the embedded band by %g on max %g", name, maxDiff, maxMag)
				}
				continue
			}
			if !got.Equal(want) {
				t.Errorf("%s: workers=%d not bit-identical to serial", name, nw)
			}
		}
		parallel.SetWorkers(1)
	}
}

// TestInverseRealBandRoundTrip: ForwardReal2DBand → InverseRealBand is
// the identity on the whole spectrum, and on a band-limited image it
// survives the resampling the litho reduced grid performs — up onto a
// larger grid at scale (n/m)², down again at (m/n)².
func TestInverseRealBandRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for _, n := range []int{3, 12, 48, 64, 96} {
		src := randMat(rng, n, n)
		back := grid.NewMat(n, n)
		InverseRealBand(back, ForwardReal2D(grid.NewCMat(n, n), src), n/2, 1)
		if d := back.Clone().Sub(src).MaxAbs(); d > 1e-12 {
			t.Errorf("n=%d: full-band round trip off by %g", n, d)
		}
	}
	for _, c := range [][3]int{{48, 128, 20}, {24, 64, 10}, {96, 128, 42}} {
		m, n, b := c[0], c[1], c[2]
		// A real image of band ±b on the m grid.
		low := grid.NewMat(m, m)
		InverseRealBand(low, randCMat(rng, m, m), b, 1)
		up := grid.NewMat(n, n)
		InverseRealBand(up, ForwardReal2DBand(grid.NewCMat(m, m), low, b), b, float64(n*n)/float64(m*m))
		down := grid.NewMat(m, m)
		InverseRealBand(down, ForwardReal2DBand(grid.NewCMat(n, n), up, b), b, float64(m*m)/float64(n*n))
		if d := down.Clone().Sub(low).MaxAbs(); d > 1e-12*low.MaxAbs() {
			t.Errorf("m=%d n=%d b=%d: resampling round trip off by %g on max %g", m, n, b, d, low.MaxAbs())
		}
	}
}

func TestInverseRealBandRangePanics(t *testing.T) {
	for _, c := range []struct{ src, dst, b int }{
		{8, 8, -1}, {8, 8, 5}, // beyond the grid's Nyquist
		{8, 16, 4}, {16, 8, 4}, // a Nyquist band across two grids
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for band %d from %d² into %d²", c.b, c.src, c.dst)
				}
			}()
			InverseRealBand(grid.NewMat(c.dst, c.dst), grid.NewCMat(c.src, c.src), c.b, 1)
		}()
	}
}

// BenchmarkInverseRealBand times the three real-output inverses of one
// solver evaluation at N=128 on its M = 48 grid: the up-sampled
// intensity and the gradient (48 → 128, b = 2B = 20 and b = B = 10) and
// the low-passed ∂L/∂I (128 → 48, b = 20).
func BenchmarkInverseRealBand(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range [][3]int{{48, 128, 20}, {48, 128, 10}, {128, 48, 20}} {
		src, dst := randCMat(rng, c[0], c[0]), grid.NewMat(c[1], c[1])
		b.Run(fmt.Sprintf("%dto%d/b=%d", c[0], c[1], c[2]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				InverseRealBand(dst, src, c[2], 1)
			}
		})
	}
}
