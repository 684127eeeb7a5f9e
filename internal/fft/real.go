package fft

import (
	"fmt"

	"mgsilt/internal/grid"
	"mgsilt/internal/parallel"
)

// ForwardReal2D computes the 2-D forward FFT of the real matrix src
// into dst (corner layout), exploiting Hermitian symmetry twice:
//
//   - Row pass: two real rows are packed into one complex buffer
//     (row y as the real part, row y+1 as the imaginary part), one
//     complex transform is run, and the two row spectra are separated
//     with the Hermitian split R_y[j] = (Z[j] + conj(Z[-j]))/2,
//     R_{y+1}[j] = -i·(Z[j] − conj(Z[-j]))/2 — H/2 transforms instead
//     of H.
//   - Column pass: after real-row transforms, column W−x is the
//     element-wise conjugate of column x, so only columns 0..W/2 are
//     transformed and the remaining half is filled by the conjugate
//     reflection F[v][x] = conj(F[(H−v) mod H][W−x]).
//
// The result matches Forward2D applied to the complex embedding of src
// to within a few ulps (the Hermitian split introduces one extra
// rounded add and an exact halving per element), and the filled half is
// exactly conjugate-symmetric. Overall cost is roughly half a complex
// 2-D transform. dst must have src's shape; its prior contents are
// ignored. Returns dst.
//
// Like Forward2D, the pass fans out over the shared pool where
// parallel.Limit says the matrix is worth it; output is bit-identical at
// every worker count (each row pair, column, and reflected row is
// written by exactly one goroutine).
func ForwardReal2D(dst *grid.CMat, src *grid.Mat) *grid.CMat {
	return ForwardReal2DBand(dst, src, src.W/2)
}

// ForwardReal2DBand is ForwardReal2D for a consumer that reads only the
// columns of horizontal frequency |f| ≤ b — columns 0..b and W−b..W−1,
// every row of them. Only columns 0..b are split out of the packed row
// pairs and column-transformed, and only W−b..W−1 are reflected; those
// entries carry the bits ForwardReal2D gives them, the rest of dst is
// unspecified. b = W/2 is the full transform.
func ForwardReal2DBand(dst *grid.CMat, src *grid.Mat, b int) *grid.CMat {
	if dst.H != src.H || dst.W != src.W {
		panic(fmt.Sprintf("fft: ForwardReal2D shape mismatch %dx%d vs %dx%d", dst.H, dst.W, src.H, src.W))
	}
	h, w := src.H, src.W
	if b < 0 || b > w/2 {
		panic(fmt.Sprintf("fft: band half-width %d outside [0, %d]", b, w/2))
	}
	rowPlan := planFor(w)
	colPlan := planFor(h)
	if h == 1 {
		// Degenerate single-row matrix: no pair packing possible.
		for i, v := range src.Data {
			dst.Data[i] = complex(v, 0)
		}
		rowPlan.transform(dst.Row(0), false)
		return dst
	}

	// One goroutine or many, the three passes are the same chunk functions
	// (a limit of one keeps DoChunks on the caller).
	limit := fanOut(0, h*w)
	f := fanPool.Get().(*fan)
	f.lone[0], f.src, f.b, f.rowPlan, f.colPlan = dst, src, b, rowPlan, colPlan
	parallel.DoChunks(h/2, limit, f.pairsStep)
	parallel.DoChunks(b+1, limit, f.bandStep)
	parallel.DoChunks(h, limit, f.reflectStep)
	f.release()
	return dst
}

// pairs runs the packed row pass of row pairs [lo, hi).
func (f *fan) pairs(lo, hi int) {
	s := getScratch(f.src.W)
	for pi := lo; pi < hi; pi++ {
		packedRowPair(f.lone[0], f.src, pi, f.b, f.rowPlan, s.buf)
	}
	putScratch(s)
}

// band transforms columns [lo, hi) of the split row spectra.
func (f *fan) band(lo, hi int) { f.colPlan.columnsPass(f.lone[0], lo, hi, false) }

// reflect fills the mirrored band of rows [lo, hi).
func (f *fan) reflect(lo, hi int) { reflectColumns(f.lone[0], f.b, lo, hi) }

// packedRowPair transforms real source rows 2·pi and 2·pi+1 through one
// packed complex transform and writes columns 0..b of their spectra to
// the matching dst rows. z must have length src.W.
func packedRowPair(dst *grid.CMat, src *grid.Mat, pi, b int, rowPlan *plan, z []complex128) {
	w := src.W
	r0 := src.Row(2 * pi)
	r1 := src.Row(2*pi + 1)
	for j := 0; j < w; j++ {
		z[j] = complex(r0[j], r1[j])
	}
	rowPlan.transform(z, false)
	out0 := dst.Row(2 * pi)
	out1 := dst.Row(2*pi + 1)
	mask := w - 1
	for j := 0; j <= b; j++ {
		jm := (w - j) & mask
		ar, ai := real(z[j]), imag(z[j])
		br, bi := real(z[jm]), imag(z[jm])
		// R0 = (Z[j] + conj(Z[-j]))/2, R1 = -i·(Z[j] − conj(Z[-j]))/2.
		out0[j] = complex(0.5*(ar+br), 0.5*(ai-bi))
		out1[j] = complex(0.5*(ai+bi), 0.5*(br-ar))
	}
}

// reflectColumns fills columns W−b..W−1 of rows [y0, y1) from the
// transformed columns 1..b using the Hermitian identity of real-input
// spectra: F[v][x] = conj(F[(H−v) mod H][W−x]). Column W/2 is its own
// mirror and already transformed, so the full band starts one past it.
// Reads touch only columns 0..W/2, so the reflection can be chunked over
// rows with no overlap between reads and writes.
func reflectColumns(m *grid.CMat, b, y0, y1 int) {
	h, w := m.H, m.W
	x0 := max(w-b, w/2+1)
	for y := y0; y < y1; y++ {
		dst := m.Row(y)
		src := m.Row((h - y) % h)
		for x := x0; x < w; x++ {
			v := src[w-x]
			dst[x] = complex(real(v), -imag(v))
		}
	}
}
