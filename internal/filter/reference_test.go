package filter

import (
	"math"
	"math/rand"
	"testing"

	"mgsilt/internal/grid"
	"mgsilt/internal/parallel"
)

// The loops convolveSeparable and morph ran before they grew interior
// and separable paths, kept as references: the fast paths must return
// the same bits.

func refConvolveSeparable(m *grid.Mat, k []float64) *grid.Mat {
	radius := len(k) / 2
	tmp := grid.NewMat(m.H, m.W)
	for y := 0; y < m.H; y++ {
		src := m.Row(y)
		dst := tmp.Row(y)
		for x := 0; x < m.W; x++ {
			sum := 0.0
			for i := -radius; i <= radius; i++ {
				sum += k[i+radius] * src[reflect(x+i, m.W)]
			}
			dst[x] = sum
		}
	}
	out := grid.NewMat(m.H, m.W)
	for x := 0; x < m.W; x++ {
		for y := 0; y < m.H; y++ {
			sum := 0.0
			for i := -radius; i <= radius; i++ {
				sum += k[i+radius] * tmp.At(reflect(y+i, m.H), x)
			}
			out.Set(y, x, sum)
		}
	}
	return out
}

func refMorph(m *grid.Mat, r int, erode bool) *grid.Mat {
	out := grid.NewMat(m.H, m.W)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			val := 1.0
			if !erode {
				val = 0.0
			}
			for dy := -r; dy <= r && (erode == (val == 1)); dy++ {
				yy := y + dy
				if yy < 0 || yy >= m.H {
					if erode {
						val = 0 // outside is background
					}
					continue
				}
				for dx := -r; dx <= r; dx++ {
					xx := x + dx
					if xx < 0 || xx >= m.W {
						if erode {
							val = 0
						}
						continue
					}
					v := m.At(yy, xx)
					if erode && v < 0.5 {
						val = 0
					} else if !erode && v >= 0.5 {
						val = 1
					}
				}
			}
			out.Set(y, x, val)
		}
	}
	return out
}

func sameBits(a, b *grid.Mat) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// widths are the pool widths the fast paths run at against one
// reference: the two shapes above parallel.SweepLimit's gate fan out at
// every width but the first, in row bands whose edges fall anywhere.
var widths = []int{1, 2, 3}

// atWidths runs f at each pool width and restores the width after.
func atWidths(f func(width int)) {
	defer parallel.SetWorkers(parallel.Workers())
	for _, w := range widths {
		parallel.SetWorkers(w)
		f(w)
	}
}

func TestConvolveSeparableBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][2]int{{1, 1}, {1, 7}, {7, 1}, {2, 2}, {3, 5}, {8, 8}, {16, 9}, {31, 33}, {64, 64}, {300, 517}, {517, 300}}
	for _, sigma := range []float64{0.5, 1, 1.5, 2.5, 5} {
		k := GaussianKernel1D(sigma)
		for _, sh := range shapes {
			m := grid.NewMat(sh[0], sh[1])
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
			}
			want := refConvolveSeparable(m, k)
			atWidths(func(width int) {
				if got := convolveSeparable(m, k); !sameBits(got, want) {
					t.Errorf("sigma %g on %dx%d (radius %d), width %d: differs from the reference loop by %g",
						sigma, sh[0], sh[1], len(k)/2, width, got.Sub(want).MaxAbs())
				}
			})
		}
	}
}

func TestMorphBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shapes := [][2]int{{1, 1}, {1, 9}, {9, 1}, {5, 5}, {12, 31}, {40, 17}, {64, 64}, {300, 517}, {517, 300}}
	for _, density := range []float64{0.1, 0.5, 0.9} {
		for _, sh := range shapes {
			if sh[0]*sh[1] > 64*64 && density != 0.5 {
				continue // the shapes above the gate: one density keeps the reference loop's cost down
			}
			m := grid.NewMat(sh[0], sh[1])
			for i := range m.Data {
				if rng.Float64() < density {
					m.Data[i] = 1
				}
			}
			for r := 0; r <= 7; r++ {
				for _, erode := range []bool{true, false} {
					want := refMorph(m, r, erode)
					atWidths(func(width int) {
						if got := morph(m, r, erode); !sameBits(got, want) {
							t.Errorf("density %g, %dx%d, r=%d, erode=%v, width %d: differs from the window loop at %g pixels",
								density, sh[0], sh[1], r, erode, width, got.L2Diff(want))
						}
					})
				}
			}
		}
	}
	// Grey levels and NaN go through the same two comparisons as in the
	// window loop: below 0.5 is background to erosion, at least 0.5
	// foreground to dilation, and NaN is neither.
	m := grid.NewMat(9, 11)
	for i := range m.Data {
		m.Data[i] = []float64{0.2, 0.5, 0.8, math.NaN(), 1}[rng.Intn(5)]
	}
	for r := 0; r <= 3; r++ {
		for _, erode := range []bool{true, false} {
			if !sameBits(morph(m, r, erode), refMorph(m, r, erode)) {
				t.Errorf("grey field, r=%d, erode=%v: differs from the window loop", r, erode)
			}
		}
	}
}

func BenchmarkOpen512(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := grid.NewMat(512, 512)
	for i := range m.Data {
		if rng.Float64() < 0.5 {
			m.Data[i] = 1
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Open(m, 2)
	}
}
