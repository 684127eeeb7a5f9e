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
// all stages together. The strip is always staged through contiguous
// scratch: power-of-two row strides map the rows of one column onto a few
// L1 sets, while a contiguous H×colStrip block does not alias and is
// 32 KiB at H = 128. Staging also pays for itself: the copy in performs
// the digit-reversal permutation and the copy out the inverse 1/n, so
// neither is a sweep of its own. Measured against the same butterflies
// run in place on the matrix rows, staging is 9 % faster at 64 rows, 13 %
// at 128, 15 % at 256 and 35 % at 512, and 7 % slower at 32. 16 columns
// measured 5 % faster than 8 on a serial LossGrad at N = 128 and 25 %
// faster on a 21-column band of 512 rows; 4 is 30 % slower throughout.
const colStrip = 16

// columnsPass transforms columns [x0, x1) of m in place with the 1-D
// plan p (p.n == m.H), colStrip columns at a time.
func (p *plan) columnsPass(m *grid.CMat, x0, x1 int, inverse bool) {
	s := getScratch(colStrip * m.H)
	for b0 := x0; b0 < x1; b0 += colStrip {
		p.stripPass(m, b0, min(colStrip, x1-b0), inverse, s.buf)
	}
	putScratch(s)
}

// stripPass transforms the nb ≤ colStrip columns of m starting at b0
// through scratch, which holds at least nb·m.H elements.
func (p *plan) stripPass(m *grid.CMat, b0, nb int, inverse bool, scratch []complex128) {
	h, w := m.H, m.W
	buf := scratch[:nb*h]
	// Row i of the scratch is row perm[i] of the strip: the permutation
	// transform realises with its swaps.
	for i, y := range p.perm {
		copy(buf[i*nb:i*nb+nb], m.Data[y*w+b0:])
	}
	for si := range p.stages {
		st := &p.stages[si]
		tw := st.tw
		if inverse {
			tw = st.twi
		}
		switch {
		case st.kind == radix3 && useAVX2:
			radix3RowsAVX2(buf, nb, tw)
		case st.kind == radix3:
			radix3Rows(buf, nb, tw)
		case st.kind == radix2 && useAVX2:
			radix2RowsAVX2(buf, nb, tw, st.size)
		case st.kind == radix2:
			radix2Rows(buf, nb, tw, st.size)
		case st.size == 4 && useAVX2:
			base4RowsAVX2(buf, nb, tw)
		case st.size == 4:
			base4Rows(buf, nb, tw)
		case useAVX2:
			radix4RowsAVX2(buf, nb, tw, st.size)
		default:
			radix4Rows(buf, nb, tw, st.size)
		}
	}
	if !inverse {
		for y := 0; y < h; y++ {
			copy(m.Data[y*w+b0:y*w+b0+nb], buf[y*nb:])
		}
		return
	}
	inv := 1 / float64(h)
	for y := 0; y < h; y++ {
		scaleInto(m.Data[y*w+b0:y*w+b0+nb], buf[y*nb:y*nb+nb], inv)
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
