package filter

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mgsilt/internal/grid"
	"mgsilt/internal/parallel"
)

// The loops the Gaussian and the morphology ran before they grew
// interior, separable and packed-word paths, kept as references: the
// fast paths must return the same bits.

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

// morph is one erosion or dilation of m through the packed path, with
// the foreground Open and Close pack for it.
func morph(m *grid.Mat, r int, erode bool) *grid.Mat {
	fg := atLeast
	if erode {
		fg = notBelow
	}
	return pack(m, 0.5, fg).morph(r, erode).unpack()
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
				continue // the large shapes: one density keeps the reference loop's cost down
			}
			m := randBinary(rng, sh[0], sh[1], density)
			for r := 0; r <= 7; r++ {
				checkMorph(t, m, r, fmt.Sprintf("density %g", density))
			}
		}
	}
	// Widths either side of one and two packed words, heights below the
	// 2r+1 rows of the window, and radii whose shifts cross whole words
	// or reach past the plane.
	for _, w := range []int{63, 64, 65, 127, 129} {
		for _, h := range []int{1, 2, 3, 4, 9} {
			m := randBinary(rng, h, w, 0.6)
			for _, r := range []int{1, 2, 5, 63, 64, 65, w - 1, w, w + 1, 1000} {
				checkMorph(t, m, r, "word edges")
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
		checkMorph(t, m, r, "grey field")
	}
}

func randBinary(rng *rand.Rand, h, w int, density float64) *grid.Mat {
	m := grid.NewMat(h, w)
	for i := range m.Data {
		if rng.Float64() < density {
			m.Data[i] = 1
		}
	}
	return m
}

// checkMorph holds erosion, dilation, Open, Close and Clean of m at
// radius r to their compositions of the window loop, bit for bit.
func checkMorph(t *testing.T, m *grid.Mat, r int, what string) {
	t.Helper()
	check := func(name string, got, want *grid.Mat) {
		t.Helper()
		if !sameBits(got, want) {
			t.Errorf("%s, %dx%d, r=%d: %s differs from the window loop", what, m.H, m.W, r, name)
		}
	}
	erode, dilate := refMorph(m, r, true), refMorph(m, r, false)
	check("erode", morph(m, r, true), erode)
	check("dilate", morph(m, r, false), dilate)
	if m.H*m.W > 64*64 {
		return // the compositions' references cost too much here; the word-edge shapes hold them
	}
	open := refMorph(erode, r, false)
	check("open", Open(m, r), open)
	check("close", Close(m, r), refMorph(dilate, r, true))
	const threshold = 0.5
	cleaned := refMorph(refMorph(refMorph(refMorph(m.Binarize(threshold), r, true), r, false), r, false), r, true)
	check("clean", Clean(m, threshold, r), cleaned)
}

// FuzzMorph holds the packed morphology to the window loop on any size,
// radius and mix of binary, grey, signed-zero and NaN values.
func FuzzMorph(f *testing.F) {
	f.Add(uint8(5), uint8(7), uint8(2), []byte{0, 1, 1, 0, 2, 5})
	f.Add(uint8(1), uint8(129), uint8(64), []byte{1, 0, 0, 1})
	f.Add(uint8(3), uint8(64), uint8(200), []byte{1})
	f.Add(uint8(70), uint8(65), uint8(65), []byte{0, 1, 3, 4, 6, 7})
	values := []float64{0, 1, math.Copysign(0, -1), 0.5, 0.2, 0.8, math.NaN(), math.Nextafter(1, 2)}
	f.Fuzz(func(t *testing.T, hRaw, wRaw, rRaw uint8, data []byte) {
		// Widths past two packed words, radii past the width; the window
		// loop's cost in r² keeps the plane small.
		h, w := int(hRaw)%24+1, int(wRaw)%140+1
		r := int(rRaw) % (w + 3)
		m := grid.NewMat(h, w)
		for i := range m.Data {
			if len(data) > 0 {
				m.Data[i] = values[int(data[i%len(data)])%len(values)]
			}
		}
		checkMorph(t, m, r, "fuzz")
	})
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
