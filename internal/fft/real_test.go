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
	}
	const tol = 1e-12
	for _, s := range shapes {
		h, w := s[0], s[1]
		src := randMat(rng, h, w)
		want := grid.NewCMatFromReal(src)
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
// without transforming.
func TestForwardReal2DHermitianSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	src := randMat(rng, 32, 32)
	f := ForwardReal2D(grid.NewCMat(32, 32), src)
	h, w := f.H, f.W
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			a := f.At(y, x)
			b := cmplx.Conj(f.At((h-y)%h, (w-x)%w))
			if cmplx.Abs(a-b) > 1e-9 {
				t.Fatalf("Hermitian violation at (%d,%d): %v vs %v", y, x, a, b)
			}
		}
	}
}

// TestForwardReal2DRoundTrip runs Inverse2D on the real-input spectrum
// and expects the original real matrix back.
func TestForwardReal2DRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	src := randMat(rng, 64, 64)
	f := ForwardReal2D(grid.NewCMat(64, 64), src)
	Inverse2D(f)
	for i, v := range f.Data {
		if d := cmplx.Abs(v - complex(src.Data[i], 0)); d > 1e-12 {
			t.Fatalf("round-trip mismatch at %d: |Δ|=%.3g", i, d)
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

	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
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
	shapes := [][2]int{{8, 32}, {32, 8}, {64, 128}, {256, 64}, {2, 16}}
	for n := 8; n <= 512; n *= 2 {
		shapes = append(shapes, [2]int{n, n})
	}
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	for _, sh := range shapes {
		h, w := sh[0], sh[1]
		src := randMat(rng, h, w)
		workers := []int{1}
		if h*w >= 2*parallel.Grain {
			workers = []int{1, 2, 3}
		}
		for _, nw := range workers {
			parallel.SetWorkers(nw)
			want := ForwardReal2D(grid.NewCMat(h, w), src)
			litho := max(1, w/13) // the B of the litho spectra: 10 at 128, 5 at 64
			for _, b := range []int{0, 1, litho, 2 * litho, w/2 - 1, w / 2} {
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
						if g, r := got.At(y, x), want.At(y, x); !sameBits(g, r) {
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
// and the M = 64 intensity (b = 2B) — beside the full transforms.
func BenchmarkForwardReal2DBand(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, c := range [][2]int{{128, 10}, {128, 21}, {128, 64}, {64, 21}, {64, 32}} {
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
