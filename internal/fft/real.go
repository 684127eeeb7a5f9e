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
	// One goroutine or many, the three passes are the same step functions
	// (a limit of one keeps Do and DoChunks on the caller).
	limit := fanOut(0, h*w)
	f := fanPool.Get().(*fan)
	f.lone[0], f.src, f.b, f.rowPlan, f.colPlan = dst, src, b, planFor(w), planFor(h)
	parallel.DoChunks((h+1)/2, limit, f.pairsStep)
	parallel.Do(f.cutBand(limit), limit, f.bandStep)
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

// cutBand cuts the band's columns 0..b into strips for a column pass on
// limit goroutines and returns their number: the fewest colStrip-wide
// strips, rounded up to a multiple of limit so that every goroutine
// starts on whole strips of its own, and no more strips than columns.
// Handed out by parallel.Do, a strip is never cut further — a
// DoChunks share of an 11–43-column band is a quarter of its half, 2–6
// columns, and columnsPass runs strips that narrow about 30 % slower per
// column. The column bits do not depend on where a strip starts or ends.
func (f *fan) cutBand(limit int) int {
	n := f.b + 1
	f.bandStrips = min(n, limit*(((n+colStrip-1)/colStrip+limit-1)/limit))
	return f.bandStrips
}

// bandCols returns the columns [lo, hi) of band strip i, the strips as
// even as the column count allows.
func (f *fan) bandCols(i int) (lo, hi int) {
	n := f.b + 1
	return i * n / f.bandStrips, (i + 1) * n / f.bandStrips
}

// band transforms band strip i of the split row spectra.
func (f *fan) band(i int) {
	lo, hi := f.bandCols(i)
	f.colPlan.columnsPass(f.lone[0], lo, hi, false)
}

// reflect fills the mirrored band of rows [lo, hi).
func (f *fan) reflect(lo, hi int) { reflectColumns(f.lone[0], f.b, lo, hi) }

// packedRowPair transforms real source rows 2·pi and 2·pi+1 through one
// packed complex transform and writes columns 0..b of their spectra to
// the matching dst rows. The last row of an odd height has no partner:
// it is transformed alone, as the complex embedding. z must have length
// src.W.
func packedRowPair(dst *grid.CMat, src *grid.Mat, pi, b int, rowPlan *plan, z []complex128) {
	w := src.W
	r0, out0 := src.Row(2*pi), dst.Row(2*pi)
	if 2*pi+1 == src.H {
		for j, v := range r0 {
			z[j] = complex(v, 0)
		}
		rowPlan.transform(z, false)
		copy(out0[:b+1], z)
		return
	}
	r1, out1 := src.Row(2*pi+1), dst.Row(2*pi+1)
	rowPlan.transformPair(z[:w], r0, r1)
	splitPacked(out0[:b+1], out1[:b+1], z)
}

// splitPacked separates the spectra of two real rows packed into one
// complex spectrum z (see ForwardReal2D) on columns j < len(out0). Column
// 0 is its own mirror; from column 1 on the mirror −j is w−j, which runs
// backwards, so the twin takes the columns in pairs from 1 and reads the
// mirrors as a reversed slice.
func splitPacked(out0, out1, z []complex128) {
	n, j := len(out0), 0
	if useAVX2 && n > 2 {
		k := (n - 1) &^ 1
		splitPackedGo(out0, out1, z, 0, 1)
		mirrorPairsAVX2(out0[1:k+1], out1[1:k+1], z[1:k+1], z[len(z)-k:])
		j = k + 1
	}
	splitPackedGo(out0, out1, z, j, n)
}

// splitPackedGo is splitPacked on columns [lo, hi), the reference loop.
func splitPackedGo(out0, out1, z []complex128, lo, hi int) {
	w := len(z)
	for j := lo; j < hi; j++ {
		jm := (w - j) % w
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
	if x0 >= w {
		return
	}
	for y := y0; y < y1; y++ {
		reflectRow(m.Row(y)[x0:], m.Row((h - y) % h)[1:w-x0+1])
	}
}

// reflectRow sets dst[i] = conj(src[n−1−i]), n = len(dst): the mirrored
// columns of one row, whose sources run backwards. The conjugate only
// flips the sign bit of the imaginary part.
func reflectRow(dst, src []complex128) {
	n, i := len(dst), 0
	if useAVX2 {
		i = n &^ 1
		reflectAVX2(dst[:i], src[n-i:n])
	}
	for ; i < n; i++ {
		v := src[n-1-i]
		dst[i] = complex(real(v), -imag(v))
	}
}

// InverseRealBand writes scale·Re F⁻¹ of the ±b band of the corner-layout
// spectrum src into the real matrix dst — the mirror of
// ForwardReal2DBand. The band is every entry of src whose row and column
// frequencies both lie in −b…b; it is read as if zero-padded (or
// cropped) onto dst's grid, and F⁻¹ is the inverse transform of that
// grid, 1/(H·W) included. src need not be Hermitian: Re F⁻¹(S) is the
// inverse of its Hermitian part (S(f) + conj(S(−f)))/2, so the band's
// columns 0..b determine the output. A band on a different grid than
// dst's must stay below both Nyquist frequencies; on the same grid b may
// reach W/2 and H/2.
//
// Two passes, one parallel section each, every output owned by one
// goroutine (bit-identical at any worker count):
//
//   - Column pass: the Hermitian part of columns 0..b is built into an
//     H×(b+1) buffer and inverse-transformed along y — b+1 column
//     transforms instead of W.
//   - Row pass: each row of the result has a Hermitian spectrum, so two
//     rows are packed into one complex row (row y as the real part, row
//     y+1 as the imaginary part), the mirrored half is filled from the
//     conjugates, and one inverse transform yields both real rows — H/2
//     row transforms instead of H.
//
// No dst-sized complex buffer is involved.
func InverseRealBand(dst *grid.Mat, src *grid.CMat, b int, scale float64) {
	h, w := dst.H, dst.W
	lim := min(h, w, src.H, src.W)
	if src.H != h || src.W != w {
		lim-- // the two copies of a Nyquist frequency would fold onto one
	}
	if b < 0 || 2*b > lim {
		panic(fmt.Sprintf("fft: band half-width %d outside [0, %d] for a %dx%d spectrum into %dx%d", b, lim/2, src.H, src.W, h, w))
	}
	g := grid.GetCMat(h, b+1)
	limit := fanOut(0, h*w)
	f := fanPool.Get().(*fan)
	f.lone[0], f.spec, f.out, f.b, f.scale, f.rowPlan, f.colPlan = g, src, dst, b, scale, planFor(w), planFor(h)
	parallel.Do(f.cutBand(limit), limit, f.hermitianStep)
	parallel.DoChunks((h+1)/2, limit, f.unpairStep)
	f.release()
	grid.PutCMat(g)
}

// hermitian builds the columns of band strip i of the band's Hermitian
// part on the output grid and inverse-transforms them along y.
func (f *fan) hermitian(i int) {
	lo, hi := f.bandCols(i)
	g, s, b := f.lone[0], f.spec, f.b
	h, hs := g.H, s.H
	for y := 0; y < h; y++ {
		row := g.Row(y)[lo:hi]
		if y > b && y < h-b {
			clear(row)
			continue
		}
		fy := y
		if y > b {
			fy -= h
		}
		ys := (fy + hs) % hs
		hermitianRow(row, s.Row(ys), s.Row((hs-ys)%hs), lo)
	}
	f.colPlan.columnsPass(g, lo, hi, true)
}

// hermitianRow sets row[k] = (a + conj(c))/2 for a = sr[lo+k] and its
// mirror c = mr[(ws−lo−k) mod ws]. Column 0 is its own mirror; past it
// the mirrors run backwards, and the twin reads them as a reversed
// slice.
func hermitianRow(row, sr, mr []complex128, lo int) {
	k0, k1 := 0, len(row)
	if useAVX2 && k1 > 2 {
		if lo == 0 {
			hermitianRowGo(row, sr, mr, lo, 0, 1)
			k0 = 1
		}
		k1 = k0 + (len(row)-k0)&^1
		ws := len(mr)
		mirrorPairsAVX2(row[k0:k1], nil, sr[lo+k0:lo+k1], mr[ws-lo-k1+1:ws-lo-k0+1])
		k0 = k1
	}
	hermitianRowGo(row, sr, mr, lo, k0, len(row))
}

// hermitianRowGo is hermitianRow on entries [k0, k1), the reference
// loop.
func hermitianRowGo(row, sr, mr []complex128, lo, k0, k1 int) {
	ws := len(mr)
	for k := k0; k < k1; k++ {
		a, c := sr[lo+k], mr[(ws-lo-k)%ws]
		row[k] = complex(0.5*(real(a)+real(c)), 0.5*(imag(a)-imag(c)))
	}
}

// unpair runs the packed inverse row pass of output row pairs [lo, hi):
// z = G_y + i·G_{y+1} on columns 0..b, conj(G_y) + i·conj(G_{y+1}) of the
// mirrored column on W−b..W−1, zero between, in natural order. The
// columns between are cleared once per chunk and written by no pair, so
// each pair fills only the 2b+1 band columns; the transform's gathering
// first pass reads them through the plan's perm, and its last pass
// stores into its own scratch row. The last row of an odd height has no
// partner and is inverted alone.
func (f *fan) unpair(lo, hi int) {
	g, b, w := f.lone[0], f.b, f.out.W
	x1 := max(w-b, b+1)
	zs, ws := getScratch(w), getScratch(w)
	z, work := zs.buf, ws.buf
	clear(z)
	for pi := lo; pi < hi; pi++ {
		y := 2 * pi
		var g1 []complex128 // nil for a lone row: G_{y+1} is zero
		if y+1 < g.H {
			g1 = g.Row(y + 1)
		}
		packBand(z, g.Row(y), g1, b, x1)
		f.rowPlan.transformWith(work, z, work, true)
		if g1 == nil {
			out0 := f.out.Row(y)
			for x, v := range work {
				out0[x] = f.scale * real(v)
			}
			continue
		}
		unzipScaled(f.out.Row(y), f.out.Row(y+1), work, f.scale)
	}
	putScratch(zs)
	putScratch(ws)
}

// packBand writes the band columns of unpair's packed Hermitian row into
// z: g0[x] + i·g1[x] on columns 0..b, conj(g0[w−x]) + i·conj(g1[w−x]) on
// x1..w−1 (w = len(z)). It leaves the columns between alone. A nil g1 is
// a row of zeros.
func packBand(z, g0, g1 []complex128, b, x1 int) {
	w := len(z)
	for x := 0; x <= b; x++ {
		u, v := g0[x], at(g1, x)
		z[x] = complex(real(u)-imag(v), imag(u)+real(v))
	}
	for x := x1; x < w; x++ {
		u, v := g0[w-x], at(g1, w-x)
		z[x] = complex(real(u)+imag(v), real(v)-imag(u))
	}
}

// unzipScaled writes s·Re z into out0 and s·Im z into out1.
func unzipScaled(out0, out1 []float64, z []complex128, s float64) {
	x := 0
	if useAVX2 {
		x = len(z) &^ 3
		unzipScaledAVX2(out0[:x], out1[:x], z[:x], s)
	}
	for ; x < len(z); x++ {
		out0[x] = s * real(z[x])
		out1[x] = s * imag(z[x])
	}
}
