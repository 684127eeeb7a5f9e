package fft

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mgsilt/internal/grid"
)

// columnsReference is the definition columnsPass is held to: gather one
// column, run the 1-D transform on it, scatter it back.
func columnsReference(p *plan, m *grid.CMat, x0, x1 int, inverse bool) {
	col := make([]complex128, m.H)
	for x := x0; x < x1; x++ {
		for y := range col {
			col[y] = m.Data[y*m.W+x]
		}
		p.transform(col, inverse)
		for y, v := range col {
			m.Data[y*m.W+x] = v
		}
	}
}

// signedZeroCMat is Gaussian noise salted with the values whose sign a
// reordered or elided operation would flip: +0, −0, entries with one
// zero component, and whole rows of +0 (the dead rows of the pruned
// transforms).
func signedZeroCMat(rng *rand.Rand, h, w int) *grid.CMat {
	negZero := math.Copysign(0, -1)
	m := randCMat(rng, h, w)
	for i := range m.Data {
		switch rng.Intn(8) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = complex(negZero, negZero)
		case 2:
			m.Data[i] = complex(real(m.Data[i]), negZero)
		case 3:
			m.Data[i] = complex(0, imag(m.Data[i]))
		}
	}
	for y := 0; y < h; y++ {
		if rng.Intn(3) == 0 {
			clear(m.Row(y))
		}
	}
	return m
}

// TestColumnsPassBitIdentical: at every height of allSizes (2^k and
// 3·2^k; odd k runs the radix-2 tail, 3·2^k the radix-3 head), widths that are not a multiple of the
// strip, sub-ranges with unaligned ends and both directions, columnsPass
// leaves exactly the bits of the column-at-a-time transform inside
// [x0, x1) and does not touch the columns outside it.
func TestColumnsPassBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for _, h := range allSizes {
		p := planFor(h)
		for _, w := range []int{1, 5, colStrip, colStrip + 3, 2*colStrip + 5} {
			for _, r := range [][2]int{{0, w}, {1, w}, {0, w - 1}, {w / 3, w/3 + w/2}, {w / 2, w / 2}} {
				x0, x1 := r[0], r[1]
				if x0 > x1 {
					continue
				}
				for _, inverse := range []bool{false, true} {
					src := signedZeroCMat(rng, h, w)
					want := src.Clone()
					columnsReference(p, want, x0, x1, inverse)
					got := src.Clone()
					p.columnsPass(got, x0, x1, inverse)
					if !bitsEqual(got, want) {
						t.Fatalf("h=%d w=%d cols [%d,%d) inverse=%v: bits differ from the per-column transform", h, w, x0, x1, inverse)
					}
				}
			}
		}
	}
}

// TestZeroColumnsPass is the column-direction twin of
// TestZeroRowTransform: an all-(+0) matrix comes out all (+0).
func TestZeroColumnsPass(t *testing.T) {
	for _, h := range allSizes {
		for _, inverse := range []bool{false, true} {
			m := grid.NewCMat(h, colStrip+3)
			planFor(h).columnsPass(m, 0, m.W, inverse)
			if !bitsEqual(m, grid.NewCMat(h, m.W)) {
				t.Fatalf("h=%d inverse=%v: zero columns produced a non-(+0) entry", h, inverse)
			}
		}
	}
}

// BenchmarkColumnsPass times the column direction alone at the heights
// the flows run, over the full width and over the 21-column band the
// band-aware real transform hands it. The 3·2^k heights 48 and 96 beside
// 64 and 128 price the radix-3 pass against the points it saves.
func BenchmarkColumnsPass(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	for _, h := range benchSizes {
		m := randCMat(rng, h, h)
		p := planFor(h)
		for _, cols := range []int{h, 21} {
			b.Run(fmt.Sprintf("h=%d/cols=%d", h, cols), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					// Forward then inverse keeps the values bounded.
					p.columnsPass(m, 0, cols, i&1 == 1)
				}
			})
		}
	}
}
