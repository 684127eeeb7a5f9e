package fft_test

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"mgsilt/internal/fft"
	"mgsilt/internal/grid"
	"mgsilt/internal/kernels"
)

// Tests of the kernel resampling. They live in the external test package
// because the window differential runs over generated kernel sets, and
// package kernels imports fft.

// fullGridResample is the full-grid bilinear loop ResampleCentered
// evaluates on its window alone: every point of the outSize grid, each
// of its four neighbours read through a bounds check. It is the
// reference the window is checked against bit for bit.
func fullGridResample(src *grid.CMat, outSize, stretch int) *grid.CMat {
	out := grid.NewCMat(outSize, outSize)
	cSrc := float64(src.H / 2)
	cOut := outSize / 2
	fs := float64(stretch)
	sample := func(y, x int) complex128 {
		if y < 0 || y >= src.H || x < 0 || x >= src.W {
			return 0
		}
		return src.Row(y)[x]
	}
	for y := 0; y < outSize; y++ {
		sy := float64(y-cOut)/fs + cSrc
		y0 := int(math.Floor(sy))
		fy := sy - float64(y0)
		for x := 0; x < outSize; x++ {
			sx := float64(x-cOut)/fs + cSrc
			x0 := int(math.Floor(sx))
			fx := sx - float64(x0)
			a, b := sample(y0, x0), sample(y0, x0+1)
			c, d := sample(y0+1, x0), sample(y0+1, x0+1)
			top := a*complex(1-fx, 0) + b*complex(fx, 0)
			bot := c*complex(1-fx, 0) + d*complex(fx, 0)
			out.Set(y, x, top*complex(1-fy, 0)+bot*complex(fy, 0))
		}
	}
	return out
}

// resampled is ResampleCentered's window embedded in zeros on the whole
// outSize grid, after checking that the window lies inside it.
func resampled(t *testing.T, src *grid.CMat, outSize, stretch int) *grid.CMat {
	t.Helper()
	win, y0, x0 := fft.ResampleCentered(src, outSize, stretch)
	if y0 < 0 || x0 < 0 || y0+win.H > outSize || x0+win.W > outSize {
		t.Fatalf("window %dx%d at (%d, %d) leaves the %d grid", win.H, win.W, y0, x0, outSize)
	}
	out := grid.NewCMat(outSize, outSize)
	for y := 0; y < win.H; y++ {
		copy(out.Row(y0 + y)[x0:], win.Row(y))
	}
	return out
}

// firstBitDiff returns the first entry at which a and b differ in their
// bits, or "" when they carry the same bits.
func firstBitDiff(a, b *grid.CMat) string {
	for i, v := range a.Data {
		w := b.Data[i]
		if math.Float64bits(real(v)) != math.Float64bits(real(w)) || math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
			return fmt.Sprintf("(%d, %d): %v, want %v", i/a.W, i%a.W, v, w)
		}
	}
	return ""
}

// TestResampleWindowMatchesFullGrid: the window embedded in zeros carries
// the bits of the full-grid loop at every point, for the generated kernel
// sets at nominal focus and defocused, on every grid from N/2 to 8N and
// every stretch the flows use; and for a source holding one entry at a
// corner, on an edge or at the centre, which pins the bounds of the
// window's pre-pass. A −0 entry counts as support like any other. The
// window spans at most stretch·(support + 2) + 1 points per axis.
func TestResampleWindowMatchesFullGrid(t *testing.T) {
	check := func(t *testing.T, src *grid.CMat, outSize, stretch, span int) {
		t.Helper()
		win, _, _ := fft.ResampleCentered(src, outSize, stretch)
		if limit := stretch*(span+2) + 1; win.H > limit || win.W > limit {
			t.Fatalf("size %d stretch %d: window %dx%d for a support of %d, want at most %d per axis",
				outSize, stretch, win.H, win.W, span, limit)
		}
		if d := firstBitDiff(resampled(t, src, outSize, stretch), fullGridResample(src, outSize, stretch)); d != "" {
			t.Fatalf("size %d stretch %d: window differs from the full grid at %s", outSize, stretch, d)
		}
	}
	for _, n := range []int{32, 64, 128} {
		kc := kernels.DefaultConfig(n)
		nominal := kernels.MustGenerate(kc)
		defocus, err := kernels.Defocused(kc, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		maxSize := 8 * n
		if testing.Short() && n > 32 {
			maxSize = 2 * n
		}
		for _, set := range []*kernels.Set{nominal, defocus} {
			t.Run(fmt.Sprintf("N=%d/defocus=%g", n, set.Defocus), func(t *testing.T) {
				for size := n / 2; size <= maxSize; size *= 2 {
					for _, stretch := range []int{1, 2, 4, 8, 16} {
						for _, k := range set.Kernels {
							check(t, k.Freq, size, stretch, set.P)
						}
					}
				}
			})
		}
	}

	negZero := complex(math.Copysign(0, -1), 0)
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{8, 16} {
		for _, pos := range [][2]int{
			{0, 0}, {0, n - 1}, {n - 1, 0}, {n - 1, n - 1}, // corners
			{0, n / 2}, {n / 2, 0}, {n - 1, n / 2}, {n / 2, n - 1}, // edges
			{n / 2, n / 2}, // DC
		} {
			for _, v := range []complex128{complex(rng.NormFloat64(), rng.NormFloat64()), negZero} {
				src := grid.NewCMat(n, n)
				src.Set(pos[0], pos[1], v)
				t.Run(fmt.Sprintf("n=%d/entry=%v/%v", n, pos, v), func(t *testing.T) {
					for _, outSize := range []int{2, n/2 + 1, n, n + 3, 2 * n, 3 * n} {
						for _, stretch := range []int{1, 2, 3, 4, 8, 16} {
							check(t, src, outSize, stretch, 1)
						}
					}
				})
			}
		}
	}

	if win, _, _ := fft.ResampleCentered(grid.NewCMat(8, 8), 16, 2); win.H != 0 || win.W != 0 {
		t.Errorf("an all-(+0) source gave a %dx%d window, want an empty one", win.H, win.W)
	}
}

func TestInterpolateCenteredIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := grid.NewCMat(8, 8)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	if out := resampled(t, m, 8, 1); !out.AlmostEqual(m, 0) {
		t.Fatal("s=1 must be the identity")
	}
}

func TestInterpolateCenteredDCAndGridPoints(t *testing.T) {
	m := grid.NewCMat(8, 8)
	m.Set(4, 4, 2) // DC in centre layout
	m.Set(4, 5, 1) // frequency (0, +1)
	out := resampled(t, m, 16, 2)
	// DC must be preserved exactly.
	if cmplx.Abs(out.Row(8)[8]-2) > 1e-12 {
		t.Fatalf("DC=%v want 2", out.Row(8)[8])
	}
	// Output frequency (0, +2) maps exactly onto source (0, +1).
	if cmplx.Abs(out.Row(8)[10]-1) > 1e-12 {
		t.Fatalf("grid point=%v want 1", out.Row(8)[10])
	}
	// Output frequency (0, +1) is halfway between source 2 and 1 → 1.5.
	if cmplx.Abs(out.Row(8)[9]-1.5) > 1e-12 {
		t.Fatalf("midpoint=%v want 1.5", out.Row(8)[9])
	}
}

func TestInterpolateCenteredSupportScales(t *testing.T) {
	// Support of diameter p must grow to about s·p.
	m := grid.NewCMat(16, 16)
	for y := 6; y < 10; y++ {
		for x := 6; x < 10; x++ {
			m.Set(y, x, 1)
		}
	}
	out := resampled(t, m, 32, 2)
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			if out.Row(y)[x] != 0 {
				dy, dx := y-16, x-16
				if dy < -5 || dy > 4 || dx < -5 || dx > 4 {
					t.Fatalf("energy leaked to %d,%d", y, x)
				}
			}
		}
	}
}

func TestResampleCenteredValidation(t *testing.T) {
	square := grid.NewCMat(8, 8)
	for _, f := range []func(){
		func() { fft.ResampleCentered(grid.NewCMat(4, 8), 8, 1) }, // non-square
		func() { fft.ResampleCentered(square, 1, 1) },             // outSize too small
		func() { fft.ResampleCentered(square, 8, 0) },             // zero stretch
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestResampleCenteredCropKeepsDC(t *testing.T) {
	// outSize < srcSize with stretch 1 takes the central crop.
	src := grid.NewCMat(16, 16)
	src.Set(8, 8, 5)  // DC
	src.Set(8, 9, 2)  // +1 bin
	src.Set(8, 15, 9) // high frequency, outside the crop
	out := resampled(t, src, 8, 1)
	if out.Row(4)[4] != 5 || out.Row(4)[5] != 2 {
		t.Fatalf("crop misaligned: DC=%v, +1=%v", out.Row(4)[4], out.Row(4)[5])
	}
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if (y != 4 || x < 4 || x > 5) && out.Row(y)[x] != 0 {
				t.Fatalf("unexpected energy at %d,%d", y, x)
			}
		}
	}
}
