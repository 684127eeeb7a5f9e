package fft

import "mgsilt/internal/grid"

// The column direction of every 2-D transform.
//
// A column of a row-major matrix is a strided sequence, but the
// butterflies of a column transform couple whole rows: the stage that
// combines elements i and i+d of one column combines them for every
// column, with the same twiddle. columnsPass therefore never transposes.
// It applies each stage of the 1-D plan to row segments — the twiddles
// of one butterfly are loaded once and held in registers while a tight
// loop sweeps the contiguous columns of the two or four rows the
// butterfly couples. Per element the operations and their order are
// exactly those of (*plan).transform on the gathered column, so every
// bit of the result is the one a column-at-a-time transform produces
// (TestColumnsPassBitIdentical).

// colStrip is the number of adjacent columns columnsPass carries through
// all stages together. The first pass of a strip reads its rows straight
// from the matrix in digit-reversed order and the last pass writes them
// back, 1/n included; the passes in between run on a contiguous H×nb
// block of scratch. Power-of-two row strides map the rows of one column
// onto a few L1 sets, while the contiguous block does not alias and is
// 32 KiB at H = 128. While the strip was still copied in and out, 16
// columns measured 5 % faster than 8 on a serial LossGrad at N = 128 and
// 25 % faster on a 21-column band of 512 rows; 4 was 30 % slower
// throughout. With the copies fused into the first and last passes, 8
// and 16 tie on the serial LossGrad (16 faster in 4 of 10 alternating
// pairs, medians within 2 %) and on a 21-column band of 128 rows, and 16
// stays ahead on the band of 512 rows (6 of 8 pairs, about 10 % in the
// median), so it stays 16 (EXPERIMENTS.md, "Fused FFT data movement").
const colStrip = 16

// columnsPass transforms columns [x0, x1) of m in place with the 1-D
// plan p (p.n == m.H), colStrip columns at a time.
func (p *plan) columnsPass(m *grid.CMat, x0, x1 int, inverse bool) {
	s := getScratch(colStrip * m.H)
	p.columnsWith(m, x0, x1, inverse, s.buf)
	putScratch(s)
}

// columnsWith is columnsPass through the caller's scratch, at least
// colStrip·m.H long.
func (p *plan) columnsWith(m *grid.CMat, x0, x1 int, inverse bool, scratch []complex128) {
	for b0 := x0; b0 < x1; b0 += colStrip {
		p.stripPass(m, b0, min(colStrip, x1-b0), inverse, scratch)
	}
}

// stripPass transforms the nb ≤ colStrip columns of m starting at b0
// through scratch, which holds at least nb·m.H elements: the first pass
// gathers rows perm[i] of the strip into scratch row i, the last stores
// scratch rows back into the strip.
func (p *plan) stripPass(m *grid.CMat, b0, nb int, inverse bool, scratch []complex128) {
	h, w := m.H, m.W
	buf := scratch[:nb*h]
	// Row y of the strip is col[y*w : y*w+nb].
	col := m.Data[b0 : (h-1)*w+b0+nb]
	last := len(p.stages) - 1
	if last < 1 {
		// At most four rows: one pass or none, through plain copies.
		for i, y := range p.perm {
			copy(buf[i*nb:i*nb+nb], col[y*w:])
		}
		if last == 0 {
			p.rowsPass(buf, nb, 0, inverse)
		}
		for y := 0; y < h; y++ {
			if inverse {
				scaleInto(col[y*w:y*w+nb], buf[y*nb:y*nb+nb], 1/float64(h))
			} else {
				copy(col[y*w:y*w+nb], buf[y*nb:])
			}
		}
		return
	}
	st := &p.stages[0]
	tw := st.table(inverse)
	switch {
	case st.kind == radix3 && useAVX2:
		radix3GatherRowsAVX2(buf, nb, col, w, p.perm, tw)
	case st.kind == radix3:
		radix3GatherRows(buf, nb, col, w, p.perm, tw)
	case useAVX2:
		base4GatherRowsAVX2(buf, nb, col, w, p.perm, tw)
	default:
		base4GatherRows(buf, nb, col, w, p.perm, tw)
	}
	for si := 1; si < last; si++ {
		p.rowsPass(buf, nb, si, inverse)
	}
	st = &p.stages[last]
	tw = st.table(inverse)
	s := 1 / float64(h)
	switch {
	case st.kind == radix2 && useAVX2:
		radix2StoreRowsAVX2(col, w, buf, nb, tw, s, inverse)
	case st.kind == radix2:
		radix2StoreRows(col, w, buf, nb, tw, s, inverse)
	case useAVX2:
		radix4StoreRowsAVX2(col, w, buf, nb, tw, s, inverse)
	default:
		radix4StoreRows(col, w, buf, nb, tw, s, inverse)
	}
}

// rowsPass runs stage si over the rows of the nb-column strip x in
// place.
func (p *plan) rowsPass(x []complex128, nb, si int, inverse bool) {
	st := &p.stages[si]
	tw := st.table(inverse)
	switch {
	case st.kind == radix3 && useAVX2:
		radix3RowsAVX2(x, nb, tw)
	case st.kind == radix3:
		radix3Rows(x, nb, tw)
	case st.kind == radix2 && useAVX2:
		radix2RowsAVX2(x, nb, tw, st.size)
	case st.kind == radix2:
		radix2Rows(x, nb, tw, st.size)
	case st.size == 4 && useAVX2:
		base4RowsAVX2(x, nb, tw)
	case st.size == 4:
		base4Rows(x, nb, tw)
	case useAVX2:
		radix4RowsAVX2(x, nb, tw, st.size)
	default:
		radix4Rows(x, nb, tw, st.size)
	}
}

// radix3GatherRows is radix3Rows as the first pass of a column
// transform: rows 3q…3q+2 of the nb-column strip x are computed from
// rows perm[3q…3q+2] of the source strip, whose row r is
// src[r·stride : r·stride+nb].
func radix3GatherRows(x []complex128, nb int, src []complex128, stride int, perm []int, tw []complex128) {
	c, s := real(tw[0]), imag(tw[0])
	for o, q := 0, 0; o+3*nb <= len(x); o, q = o+3*nb, q+3 {
		r0 := x[o : o+nb]
		r1 := x[o+nb:][:len(r0)]
		r2 := x[o+2*nb:][:len(r0)]
		s0 := src[perm[q]*stride:][:len(r0)]
		s1 := src[perm[q+1]*stride:][:len(r0)]
		s2 := src[perm[q+2]*stride:][:len(r0)]
		for k, x0 := range s0 {
			x1, x2 := s1[k], s2[k]
			tr, ti := real(x1)+real(x2), imag(x1)+imag(x2)
			mr, mi := real(x0)+c*tr, imag(x0)+c*ti
			vr, vi := s*(real(x1)-real(x2)), s*(imag(x1)-imag(x2))
			r0[k] = complex(real(x0)+tr, imag(x0)+ti)
			r1[k] = complex(mr-vi, mi+vr)
			r2[k] = complex(mr+vi, mi-vr)
		}
	}
}

// base4GatherRows is base4Rows as the first pass of a column transform:
// rows 4b…4b+3 of the strip x are computed from rows perm[4b…4b+3] of
// the source strip (see radix3GatherRows).
func base4GatherRows(x []complex128, nb int, src []complex128, stride int, perm []int, tw []complex128) {
	wr, wi := real(tw[1]), imag(tw[1])
	for o, q := 0, 0; o+4*nb <= len(x); o, q = o+4*nb, q+4 {
		r0 := x[o : o+nb]
		r1 := x[o+nb:][:len(r0)]
		r2 := x[o+2*nb:][:len(r0)]
		r3 := x[o+3*nb:][:len(r0)]
		s0 := src[perm[q]*stride:][:len(r0)]
		s1 := src[perm[q+1]*stride:][:len(r0)]
		s2 := src[perm[q+2]*stride:][:len(r0)]
		s3 := src[perm[q+3]*stride:][:len(r0)]
		for c, a0 := range s0 {
			a1, a2, a3 := s1[c], s2[c], s3[c]
			b0r, b0i := real(a0)+real(a1), imag(a0)+imag(a1)
			b1r, b1i := real(a0)-real(a1), imag(a0)-imag(a1)
			b2r, b2i := real(a2)+real(a3), imag(a2)+imag(a3)
			b3r, b3i := real(a2)-real(a3), imag(a2)-imag(a3)
			tr := wr*b3r - wi*b3i
			ti := wr*b3i + wi*b3r
			r0[c] = complex(b0r+b2r, b0i+b2i)
			r1[c] = complex(b1r+tr, b1i+ti)
			r2[c] = complex(b0r-b2r, b0i-b2i)
			r3[c] = complex(b1r-tr, b1i-ti)
		}
	}
}

// radix4StoreRows is radix4Rows as the last pass of a column transform,
// one block spanning the strip x: scratch row i goes to row i of the
// destination strip, dst[i·stride : i·stride+nb], and when scaled each
// part is multiplied by s as scaleInto does.
func radix4StoreRows(dst []complex128, stride int, x []complex128, nb int, tw []complex128, s float64, scaled bool) {
	h := len(x) / nb
	quarter := h >> 2
	half := h >> 1
	tw = tw[:half]
	for j := 0; j < quarter; j++ {
		war, wai := real(tw[2*j]), imag(tw[2*j])
		wbr, wbi := real(tw[j]), imag(tw[j])
		wcr, wci := real(tw[j+quarter]), imag(tw[j+quarter])

		o := j * nb
		r0 := x[o : o+nb]
		r1 := x[o+quarter*nb:][:len(r0)]
		r2 := x[o+half*nb:][:len(r0)]
		r3 := x[o+(half+quarter)*nb:][:len(r0)]
		d0 := dst[j*stride:][:len(r0)]
		d1 := dst[(j+quarter)*stride:][:len(r0)]
		d2 := dst[(j+half)*stride:][:len(r0)]
		d3 := dst[(j+half+quarter)*stride:][:len(r0)]
		for c, x0 := range r0 {
			x1, x2, x3 := r1[c], r2[c], r3[c]

			tr := war*real(x1) - wai*imag(x1)
			ti := war*imag(x1) + wai*real(x1)
			a0r, a0i := real(x0)+tr, imag(x0)+ti
			a1r, a1i := real(x0)-tr, imag(x0)-ti

			tr = war*real(x3) - wai*imag(x3)
			ti = war*imag(x3) + wai*real(x3)
			a2r, a2i := real(x2)+tr, imag(x2)+ti
			a3r, a3i := real(x2)-tr, imag(x2)-ti

			tr = wbr*a2r - wbi*a2i
			ti = wbr*a2i + wbi*a2r
			y0r, y0i, y2r, y2i := a0r+tr, a0i+ti, a0r-tr, a0i-ti

			tr = wcr*a3r - wci*a3i
			ti = wcr*a3i + wci*a3r
			y1r, y1i, y3r, y3i := a1r+tr, a1i+ti, a1r-tr, a1i-ti
			if scaled {
				y0r, y0i, y1r, y1i = y0r*s, y0i*s, y1r*s, y1i*s
				y2r, y2i, y3r, y3i = y2r*s, y2i*s, y3r*s, y3i*s
			}
			d0[c] = complex(y0r, y0i)
			d1[c] = complex(y1r, y1i)
			d2[c] = complex(y2r, y2i)
			d3[c] = complex(y3r, y3i)
		}
	}
}

// radix2StoreRows is radix2Rows as the last pass of a column transform,
// storing and scaling as radix4StoreRows does.
func radix2StoreRows(dst []complex128, stride int, x []complex128, nb int, tw []complex128, s float64, scaled bool) {
	half := len(x) / nb >> 1
	tw = tw[:half]
	for j := 0; j < half; j++ {
		wr, wi := real(tw[j]), imag(tw[j])
		o := j * nb
		r0 := x[o : o+nb]
		r1 := x[o+half*nb:][:len(r0)]
		d0 := dst[j*stride:][:len(r0)]
		d1 := dst[(j+half)*stride:][:len(r0)]
		for c, a := range r0 {
			y := r1[c]
			tr := wr*real(y) - wi*imag(y)
			ti := wr*imag(y) + wi*real(y)
			y0r, y0i, y1r, y1i := real(a)+tr, imag(a)+ti, real(a)-tr, imag(a)-ti
			if scaled {
				y0r, y0i, y1r, y1i = y0r*s, y0i*s, y1r*s, y1i*s
			}
			d0[c] = complex(y0r, y0i)
			d1[c] = complex(y1r, y1i)
		}
	}
}

// radix3Rows is radix3Pass over the rows of an nb-column strip: rows
// 3i…3i+2 play the part of x[3i…3i+2].
func radix3Rows(x []complex128, nb int, tw []complex128) {
	c, s := real(tw[0]), imag(tw[0])
	for o := 0; o+3*nb <= len(x); o += 3 * nb {
		r0 := x[o : o+nb]
		r1 := x[o+nb:][:len(r0)]
		r2 := x[o+2*nb:][:len(r0)]
		for k, x0 := range r0 {
			x1, x2 := r1[k], r2[k]
			tr, ti := real(x1)+real(x2), imag(x1)+imag(x2)
			mr, mi := real(x0)+c*tr, imag(x0)+c*ti
			vr, vi := s*(real(x1)-real(x2)), s*(imag(x1)-imag(x2))
			r0[k] = complex(real(x0)+tr, imag(x0)+ti)
			r1[k] = complex(mr-vi, mi+vr)
			r2[k] = complex(mr+vi, mi-vr)
		}
	}
}

// base4Rows is base4Pass over the rows of an nb-column strip: rows
// 4i…4i+3 play the part of x[4i…4i+3]. Like base4Pass it never
// multiplies by the twiddles that are exactly 1, so signed zeros come
// out as they do there.
func base4Rows(x []complex128, nb int, tw []complex128) {
	wr, wi := real(tw[1]), imag(tw[1])
	for o := 0; o+4*nb <= len(x); o += 4 * nb {
		r0 := x[o : o+nb]
		r1 := x[o+nb:][:len(r0)]
		r2 := x[o+2*nb:][:len(r0)]
		r3 := x[o+3*nb:][:len(r0)]
		for c, a0 := range r0 {
			a1, a2, a3 := r1[c], r2[c], r3[c]
			b0r, b0i := real(a0)+real(a1), imag(a0)+imag(a1)
			b1r, b1i := real(a0)-real(a1), imag(a0)-imag(a1)
			b2r, b2i := real(a2)+real(a3), imag(a2)+imag(a3)
			b3r, b3i := real(a2)-real(a3), imag(a2)-imag(a3)
			tr := wr*b3r - wi*b3i
			ti := wr*b3i + wi*b3r
			r0[c] = complex(b0r+b2r, b0i+b2i)
			r1[c] = complex(b1r+tr, b1i+ti)
			r2[c] = complex(b0r-b2r, b0i-b2i)
			r3[c] = complex(b1r-tr, b1i-ti)
		}
	}
}

// radix4Rows is radix4Pass over the rows of an nb-column strip: the
// three twiddles of butterfly (base, j) are read once and applied to
// every column of rows i0…i3.
func radix4Rows(x []complex128, nb int, tw []complex128, size int) {
	quarter := size >> 2
	half := size >> 1
	tw = tw[:half]
	h := len(x) / nb
	for base := 0; base+size <= h; base += size {
		for j := 0; j < quarter; j++ {
			war, wai := real(tw[2*j]), imag(tw[2*j])
			wbr, wbi := real(tw[j]), imag(tw[j])
			wcr, wci := real(tw[j+quarter]), imag(tw[j+quarter])

			o := (base + j) * nb
			r0 := x[o : o+nb]
			r1 := x[o+quarter*nb:][:len(r0)]
			r2 := x[o+half*nb:][:len(r0)]
			r3 := x[o+(half+quarter)*nb:][:len(r0)]
			for c, x0 := range r0 {
				x1, x2, x3 := r1[c], r2[c], r3[c]

				tr := war*real(x1) - wai*imag(x1)
				ti := war*imag(x1) + wai*real(x1)
				a0r, a0i := real(x0)+tr, imag(x0)+ti
				a1r, a1i := real(x0)-tr, imag(x0)-ti

				tr = war*real(x3) - wai*imag(x3)
				ti = war*imag(x3) + wai*real(x3)
				a2r, a2i := real(x2)+tr, imag(x2)+ti
				a3r, a3i := real(x2)-tr, imag(x2)-ti

				tr = wbr*a2r - wbi*a2i
				ti = wbr*a2i + wbi*a2r
				r0[c] = complex(a0r+tr, a0i+ti)
				r2[c] = complex(a0r-tr, a0i-ti)

				tr = wcr*a3r - wci*a3i
				ti = wcr*a3i + wci*a3r
				r1[c] = complex(a1r+tr, a1i+ti)
				r3[c] = complex(a1r-tr, a1i-ti)
			}
		}
	}
}

// radix2Rows is radix2Pass over the rows of an nb-column strip.
func radix2Rows(x []complex128, nb int, tw []complex128, size int) {
	half := size >> 1
	h := len(x) / nb
	for base := 0; base+size <= h; base += size {
		for j := 0; j < half; j++ {
			wr, wi := real(tw[j]), imag(tw[j])
			o := (base + j) * nb
			r0 := x[o : o+nb]
			r1 := x[o+half*nb:][:len(r0)]
			for c, a := range r0 {
				y := r1[c]
				tr := wr*real(y) - wi*imag(y)
				ti := wr*imag(y) + wi*real(y)
				r0[c] = complex(real(a)+tr, imag(a)+ti)
				r1[c] = complex(real(a)-tr, imag(a)-ti)
			}
		}
	}
}
