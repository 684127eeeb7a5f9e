// Package fft implements the fast Fourier transforms used by the
// lithography simulator: a mixed radix-4/radix-2 complex transform, with
// a radix-3 head for lengths 3·2^k, and cached per-stage twiddle tables,
// one 2-D complex transform over grid.CMat, a real-input forward
// transform exploiting Hermitian symmetry and the consumer's column band
// (ForwardReal2D, ForwardReal2DBand) and its real-output mirror
// (InverseRealBand), the frequency reversal of the adjoint pass, and
// the fractional frequency interpolation behind the sN-grid kernel
// resampling of Eq. (3)/(9), which evaluates only the window its
// source's support reaches (ResampleCentered).
//
// The 2-D complex transform is one routine (xform2D): a row pass over
// the live rows and a column pass over every column, in either order,
// over one matrix or a same-shaped batch. The exported entry points are
// its settings: Inverse2DPruned (row mask, rows first), Forward2DBand
// (row mask, columns first), and Batch2D (every row live, rows first),
// Batch2DInversePruned and Batch2DForwardBand, the same over a batch
// whose rows and column
// strips each fan out over the shared worker pool in one parallel
// section.
//
// Conventions: the forward transform is unnormalised and the inverse
// carries the 1/n factor per dimension, so a round trip returns the
// input. Spectra produced by ForwardReal2D have DC at index (0,0) ("corner"
// layout); kernel definitions and ResampleCentered use the DC-at-centre
// layout, and the caller places the resampled window in corner layout.
// Every length is 2^k or 3·2^k.
//
// Performance design (see README "Performance engineering"): the 1-D
// kernel is a decimation-in-time transform whose radix-2 stages are
// fused in pairs into radix-4 passes — each pass loads four elements,
// applies both constituent butterflies with values held in float64
// registers, and stores four, halving the number of sweeps over the
// data array relative to a plain radix-2 loop. Every pass reads a
// contiguous per-stage twiddle table (no strided indexing into one
// master table). For odd k the final unpaired stage runs as a radix-2
// pass. The arithmetic performed per element is identical, operation
// for operation, to the textbook radix-2 algorithm, so results are
// bit-identical to it.
//
// A length 3·2^k is the same plan with one more stage kind in front: a
// radix-3 pass over consecutive triples, twiddle-free like the first
// radix-4 pass, after which the radix-4 and radix-2 passes run at spans
// 12, 48, … or 6, 24, 96, … with the same generic butterflies. The input
// order is the matching digit reversal (position 3q + j holds
// x[rev(q) + j·n/3]), no longer an involution. The one extra stage kind
// gives the row, column, pruned, band, batched and real-input paths
// 3·2^k sizes for free; it exists so the litho reduced grids can be 24,
// 48 or 96 points where a power of two would need 32, 64 or 128.
//
// Every pass sequence reads its input once and writes its output once.
// The digit reversal is never a sweep of its own: the first pass (base-4
// or radix-3) reads each butterfly's inputs straight from their
// digit-reversed source positions, and the last pass (radix-4 or
// radix-2, spanning the whole length) stores straight to the destination,
// the inverse 1/n applied to each stored part. Only the passes in between
// run in place on scratch. The real-output inverse is no exception: its
// packed row is built in natural order, zero outside the band, and read
// by the same gathering first pass. Plans of at most four points, one
// pass or none, gather through a plain copy.
//
// The column direction of a 2-D transform never transposes: the same
// passes run over row segments, each butterfly as one loop over the
// contiguous columns of the rows it couples with its twiddles held in
// registers (columns.go), a strip of columns at a time. The real
// forward transform splits, column-transforms and reflects only the
// columns its consumer reads. Both are exact: every entry carries the
// bits of the column-at-a-time transform.
//
// On amd64 with AVX2 the gathering first and storing last passes (the
// latter applying the inverse 1/n), the in-place radix-4 passes between
// them, in a row and over a strip, and the packing loops of the real
// transforms run as assembly twins (butterflies_amd64.s), two
// complex128 per vector register, with the IEEE operations of the Go
// loops in their order: the choice moves no bit. A plan of at most four
// points runs its one pass (or none) and its 1/n with the Go loops on
// every CPU, and so do the radix-3 gather of a packed real pair and the
// conjugate reflection: at the workloads' row lengths a twin of either
// saves under half a percent of an op's CPU. The Go loops are the
// reference, finish what a twin leaves of a row, and are every other
// CPU's path.
//
// All transient buffers (column strips, packed rows) come from
// per-length pools shared by the serial and parallel paths, giving the
// 2-D entry points an allocation-free steady state.
package fft

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"mgsilt/internal/cpu"
	"mgsilt/internal/grid"
	"mgsilt/internal/parallel"
)

// useAVX2 routes the hot loops to their AVX2 twins in
// butterflies_amd64.s, decided once from CPUID. Each twin performs the
// IEEE operations of its Go loop in the same order, so the choice moves
// no result bit; the tests clear it to run the Go loops.
var useAVX2 = cpu.HasAVX2()

// plan holds the precomputed digit-reversal permutation and per-stage
// twiddle tables for a transform of a fixed length n = r·2^k, r ∈ {1, 3}.
// Plans are immutable once built and safe for concurrent use.
type plan struct {
	n int
	// perm is the input order of the decimation-in-time stages: position
	// r·q + j holds x[rev_k(q) + 2^k·j], rev_k the k-bit reversal — the
	// bit-reversal permutation when r = 1. The first pass reads its
	// inputs through it.
	perm []int
	// stages are executed in order over the permuted input: for r = 3 a
	// radix-3 pass of span 3 first, then fused radix-4 passes each
	// covering the two radix-2 stages of sizes size/2 and size, and — as
	// the final entry when k is odd — a plain radix-2 pass of size n.
	stages []stage
}

// stageKind selects the butterfly of a pass.
type stageKind int

const (
	radix4 stageKind = iota
	radix2
	radix3
)

// stage is one butterfly pass. For the radix-2 and radix-4 kinds tw
// holds size/2 twiddles w^j = exp(-2πi·j/size) for j in [0, size/2); a
// fused radix-4 pass finds the twiddles of both constituent radix-2
// stages inside that one contiguous table (stage size/2 uses tw[2j],
// stage size uses tw[j] and tw[j+size/4]). The radix-3 pass holds the
// one cube root of unity exp(-2πi/3) = −1/2 − i·√3/2 it multiplies by.
// twi is the element-wise conjugate of tw, precomputed so the inverse
// transform reads its twiddles from a table instead of negating inside
// the butterfly loop; conjugation only flips the sign bit of the
// imaginary part, so the inverse arithmetic is bit-identical to the
// former in-loop negation.
type stage struct {
	size int
	kind stageKind
	tw   []complex128
	twi  []complex128
}

var (
	plansMu sync.Mutex
	plans   = map[int]*plan{}
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// radixOf returns r for a transform length n = r·2^k, r ∈ {1, 3}, and 0
// for every other length.
func radixOf(n int) int {
	switch {
	case IsPow2(n):
		return 1
	case n%3 == 0 && IsPow2(n/3):
		return 3
	}
	return 0
}

func planFor(n int) *plan {
	r := radixOf(n)
	if r == 0 {
		panic(fmt.Sprintf("fft: length %d is neither 2^k nor 3·2^k", n))
	}
	plansMu.Lock()
	defer plansMu.Unlock()
	if p, ok := plans[n]; ok {
		return p
	}
	p := &plan{n: n, perm: make([]int, n)}
	blocks := n / r
	shift := bits.UintSize - uint(bits.TrailingZeros(uint(blocks)))
	for q := 0; q < blocks; q++ {
		rq := int(bits.Reverse(uint(q)) >> shift)
		for j := 0; j < r; j++ {
			p.perm[r*q+j] = rq + blocks*j
		}
	}
	// A radix-3 pass of span 3 first, then radix-2 stages fused in pairs
	// from the bottom: sizes (2,4) → radix-4 pass of span 4, (8,16) →
	// span 16, … (r = 3: (6,12) → span 12, …). When k is odd one stage of
	// span n remains and runs as a radix-2 pass.
	done := 1
	if r == 3 {
		w3 := []complex128{complex(-0.5, -math.Sqrt(3)/2)}
		p.stages = append(p.stages, stage{size: 3, kind: radix3, tw: w3, twi: conjugated(w3)})
		done = 3
	}
	for done*4 <= n {
		size := done * 4
		tw := twiddles(size)
		p.stages = append(p.stages, stage{size: size, kind: radix4, tw: tw, twi: conjugated(tw)})
		done = size
	}
	if done < n {
		tw := twiddles(n)
		p.stages = append(p.stages, stage{size: n, kind: radix2, tw: tw, twi: conjugated(tw)})
	}
	plans[n] = p
	return p
}

// twiddles builds the forward half-table for one stage:
// w^j = exp(-2πi·j/size), j in [0, size/2).
func twiddles(size int) []complex128 {
	tw := make([]complex128, size/2)
	for j := range tw {
		ang := -2 * math.Pi * float64(j) / float64(size)
		tw[j] = complex(math.Cos(ang), math.Sin(ang))
	}
	return tw
}

// conjugated returns the element-wise conjugate table for the inverse
// passes.
func conjugated(tw []complex128) []complex128 {
	out := make([]complex128, len(tw))
	for j, w := range tw {
		out[j] = complex(real(w), -imag(w))
	}
	return out
}

// transform runs the mixed-radix FFT over x in place, through a pooled
// scratch row. When inverse is true the conjugate twiddles are used and
// the result is scaled by 1/n.
func (p *plan) transform(x []complex128, inverse bool) {
	s := getScratch(p.n)
	p.transformWith(x, x, s.buf, inverse)
	putScratch(s)
}

// transformWith is the transform of x into dst through the caller's
// scratch row work (at least n long): the first pass gathers x into
// work, the passes between run on work, and the last pass stores into
// dst, which may be x or work.
func (p *plan) transformWith(dst, x, work []complex128, inverse bool) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: buffer length %d does not match plan %d", len(x), p.n))
	}
	work = work[:p.n]
	if len(p.stages) < 2 {
		for i, j := range p.perm {
			work[i] = x[j]
		}
		p.finish(dst, work, 0, inverse)
		return
	}
	st := &p.stages[0]
	tw := st.table(inverse)
	switch {
	case st.kind == radix3 && useAVX2:
		radix3GatherAVX2(work, x, p.perm, tw)
	case st.kind == radix3:
		radix3Gather(work, x, p.perm, tw)
	case useAVX2:
		base4GatherAVX2(work, x, p.perm, tw)
	default:
		base4Gather(work, x, p.perm, tw)
	}
	p.finish(dst, work, 1, inverse)
}

// transformPair is the forward transform of the packed row re + i·im
// into z: the first pass reads the two real rows in digit-reversed
// order, so the packed row is never built.
func (p *plan) transformPair(z []complex128, re, im []float64) {
	z, re, im = z[:p.n], re[:p.n], im[:p.n]
	if len(p.stages) < 2 {
		for j := range z {
			z[j] = complex(re[j], im[j])
		}
		p.transform(z, false)
		return
	}
	if st := &p.stages[0]; st.kind == radix3 {
		radix3GatherPair(z, re, im, p.perm, st.tw)
	} else {
		base4GatherPair(z, re, im, p.perm, st.tw)
	}
	p.finish(z, z, 1, false)
}

// finish runs the stages from `from` on over the permuted data in work:
// all but the last in place, the last storing into dst, which may be
// work itself, with the inverse 1/n applied to each stored part. A plan
// of at most four points runs its one pass in place with the Go loops
// and then copies.
func (p *plan) finish(dst, work []complex128, from int, inverse bool) {
	last := len(p.stages) - 1
	for si := from; si < last; si++ {
		p.pass(work, si, inverse)
	}
	s := 1 / float64(p.n)
	if last < 0 {
		if inverse {
			scaleInto(dst, work, s)
		} else {
			copy(dst, work)
		}
		return
	}
	st := &p.stages[last]
	tw := st.table(inverse)
	switch {
	case st.kind == radix2 && useAVX2:
		radix2StoreAVX2(dst, work, tw, s, inverse)
	case st.kind == radix2:
		radix2Store(dst, work, tw, s, inverse)
	case st.kind == radix4 && st.size > 4 && useAVX2:
		radix4StoreAVX2(dst, work, tw, s, inverse)
	case st.kind == radix4 && st.size > 4:
		radix4Store(dst, work, tw, s, inverse)
	default:
		p.pass(work, last, inverse)
		if inverse {
			scaleInto(dst, work, s)
		} else {
			copy(dst, work)
		}
	}
}

// pass runs stage si over x in place. Past a plan of at most four
// points, whose one pass it is, it runs only the radix-4 passes between
// the first and the last, so only those have a twin.
func (p *plan) pass(x []complex128, si int, inverse bool) {
	st := &p.stages[si]
	tw := st.table(inverse)
	switch {
	case st.kind == radix3:
		radix3Pass(x, tw)
	case st.kind == radix2:
		radix2Pass(x, tw, st.size)
	case st.size == 4:
		base4Pass(x, tw)
	case useAVX2:
		radix4PassAVX2(x, tw, st.size)
	default:
		radix4Pass(x, tw, st.size)
	}
}

// table returns the stage's twiddles for the direction.
func (st *stage) table(inverse bool) []complex128 {
	if inverse {
		return st.twi
	}
	return st.tw
}

// scaleInto sets dst[i] = src[i]·s, each part multiplied on its own:
// the inverse transform's 1/n.
func scaleInto(dst, src []complex128, s float64) {
	for i, v := range src {
		dst[i] = complex(real(v)*s, imag(v)*s)
	}
}

// radix3Pass is the first pass of a 3·2^k plan: a 3-point DFT over every
// triple of the permuted data. With w = tw[0] = c + i·s (the
// direction-selected cube root of unity, c = −1/2 exactly) and w² = w̄,
//
//	X0 = x0 + (x1+x2),  X1,2 = x0 + c·(x1+x2) ± i·s·(x1−x2),
//
// so a butterfly takes two real multiplications per component. Every
// output is an additive chain rooted at x0, which keeps an all-(+0)
// triple all (+0) (TestZeroRowTransform).
func radix3Pass(x []complex128, tw []complex128) {
	c, s := real(tw[0]), imag(tw[0])
	for base := 0; base+2 < len(x); base += 3 {
		x0, x1, x2 := x[base], x[base+1], x[base+2]
		tr, ti := real(x1)+real(x2), imag(x1)+imag(x2)
		mr, mi := real(x0)+c*tr, imag(x0)+c*ti
		vr, vi := s*(real(x1)-real(x2)), s*(imag(x1)-imag(x2))
		x[base] = complex(real(x0)+tr, imag(x0)+ti)
		x[base+1] = complex(mr-vi, mi+vr)
		x[base+2] = complex(mr+vi, mi-vr)
	}
}

// base4Pass is the first fused pass (radix-2 stages of sizes 2 and 4)
// over bit-reversed data. Its stage-2 twiddle and the first stage-4
// twiddle are exactly 1, so the only multiplication is by tw[1] (≈ -i,
// taken from the direction-selected table so the arithmetic matches the
// generic pass bit for bit).
func base4Pass(x []complex128, tw []complex128) {
	wr, wi := real(tw[1]), imag(tw[1])
	for base := 0; base+3 < len(x); base += 4 {
		a0, a1, a2, a3 := x[base], x[base+1], x[base+2], x[base+3]
		// Stage of size 2 (twiddle 1): butterflies (a0,a1), (a2,a3).
		b0r, b0i := real(a0)+real(a1), imag(a0)+imag(a1)
		b1r, b1i := real(a0)-real(a1), imag(a0)-imag(a1)
		b2r, b2i := real(a2)+real(a3), imag(a2)+imag(a3)
		b3r, b3i := real(a2)-real(a3), imag(a2)-imag(a3)
		// Stage of size 4: butterfly (b0,b2) with twiddle 1 and
		// (b1,b3) with twiddle tw[1].
		tr := wr*b3r - wi*b3i
		ti := wr*b3i + wi*b3r
		x[base] = complex(b0r+b2r, b0i+b2i)
		x[base+1] = complex(b1r+tr, b1i+ti)
		x[base+2] = complex(b0r-b2r, b0i-b2i)
		x[base+3] = complex(b1r-tr, b1i-ti)
	}
}

// radix4Pass fuses the two radix-2 stages of sizes size/2 and size into
// a single sweep: each iteration loads x[i0..i3], applies the size/2
// butterflies (i0,i1) and (i2,i3) with twiddle tw[2j], then the size
// butterflies (i0,i2) and (i1,i3) with twiddles tw[j] and tw[j+size/4],
// and stores the four results. Per element the operations and their
// order are exactly those of the two separate radix-2 passes, so the
// output is bit-identical — only the loads and stores are halved. The
// caller passes the direction-selected twiddle table (tw or twi).
func radix4Pass(x []complex128, tw []complex128, size int) {
	quarter := size >> 2
	half := size >> 1
	tw = tw[:half] // one bounds check here instead of three per butterfly
	for base := 0; base+size <= len(x); base += size {
		for j := 0; j < quarter; j++ {
			i0 := base + j
			i1 := i0 + quarter
			i2 := i0 + half
			i3 := i2 + quarter

			war, wai := real(tw[2*j]), imag(tw[2*j])
			wbr, wbi := real(tw[j]), imag(tw[j])
			wcr, wci := real(tw[j+quarter]), imag(tw[j+quarter])

			x0, x1, x2, x3 := x[i0], x[i1], x[i2], x[i3]

			// Stage size/2: t = wa·x1; (x0,x1) ← (x0+t, x0−t), and the
			// same butterfly on (x2,x3).
			tr := war*real(x1) - wai*imag(x1)
			ti := war*imag(x1) + wai*real(x1)
			a0r, a0i := real(x0)+tr, imag(x0)+ti
			a1r, a1i := real(x0)-tr, imag(x0)-ti

			tr = war*real(x3) - wai*imag(x3)
			ti = war*imag(x3) + wai*real(x3)
			a2r, a2i := real(x2)+tr, imag(x2)+ti
			a3r, a3i := real(x2)-tr, imag(x2)-ti

			// Stage size: (a0,a2) with wb, (a1,a3) with wc.
			tr = wbr*a2r - wbi*a2i
			ti = wbr*a2i + wbi*a2r
			x[i0] = complex(a0r+tr, a0i+ti)
			x[i2] = complex(a0r-tr, a0i-ti)

			tr = wcr*a3r - wci*a3i
			ti = wcr*a3i + wci*a3r
			x[i1] = complex(a1r+tr, a1i+ti)
			x[i3] = complex(a1r-tr, a1i-ti)
		}
	}
}

// radix2Pass is the final unpaired stage for odd k: one plain
// radix-2 sweep of span size with its own contiguous twiddle table
// (direction-selected by the caller).
func radix2Pass(x []complex128, tw []complex128, size int) {
	half := size >> 1
	for base := 0; base+size <= len(x); base += size {
		for j := 0; j < half; j++ {
			wr, wi := real(tw[j]), imag(tw[j])
			k := base + j
			y := x[k+half]
			tr := wr*real(y) - wi*imag(y)
			ti := wr*imag(y) + wi*real(y)
			xr, xi := real(x[k]), imag(x[k])
			x[k] = complex(xr+tr, xi+ti)
			x[k+half] = complex(xr-tr, xi-ti)
		}
	}
}

// radix3Gather is radix3Pass as the first pass of a transform: the
// inputs of triple q are src[perm[3q…3q+2]], its results go to
// dst[3q…3q+2].
func radix3Gather(dst, src []complex128, perm []int, tw []complex128) {
	c, s := real(tw[0]), imag(tw[0])
	perm = perm[:len(dst)]
	for base := 0; base+2 < len(dst); base += 3 {
		x0, x1, x2 := src[perm[base]], src[perm[base+1]], src[perm[base+2]]
		tr, ti := real(x1)+real(x2), imag(x1)+imag(x2)
		mr, mi := real(x0)+c*tr, imag(x0)+c*ti
		vr, vi := s*(real(x1)-real(x2)), s*(imag(x1)-imag(x2))
		dst[base] = complex(real(x0)+tr, imag(x0)+ti)
		dst[base+1] = complex(mr-vi, mi+vr)
		dst[base+2] = complex(mr+vi, mi-vr)
	}
}

// radix3GatherPair is radix3Gather over the packed row re + i·im.
func radix3GatherPair(dst []complex128, re, im []float64, perm []int, tw []complex128) {
	c, s := real(tw[0]), imag(tw[0])
	perm = perm[:len(dst)]
	for base := 0; base+2 < len(dst); base += 3 {
		j0, j1, j2 := perm[base], perm[base+1], perm[base+2]
		x0r, x0i := re[j0], im[j0]
		tr, ti := re[j1]+re[j2], im[j1]+im[j2]
		mr, mi := x0r+c*tr, x0i+c*ti
		vr, vi := s*(re[j1]-re[j2]), s*(im[j1]-im[j2])
		dst[base] = complex(x0r+tr, x0i+ti)
		dst[base+1] = complex(mr-vi, mi+vr)
		dst[base+2] = complex(mr+vi, mi-vr)
	}
}

// base4Gather is base4Pass as the first pass of a transform: the inputs
// of butterfly b are src[perm[4b…4b+3]], its results go to dst[4b…4b+3].
func base4Gather(dst, src []complex128, perm []int, tw []complex128) {
	wr, wi := real(tw[1]), imag(tw[1])
	perm = perm[:len(dst)]
	for base := 0; base+3 < len(dst); base += 4 {
		a0, a1, a2, a3 := src[perm[base]], src[perm[base+1]], src[perm[base+2]], src[perm[base+3]]
		b0r, b0i := real(a0)+real(a1), imag(a0)+imag(a1)
		b1r, b1i := real(a0)-real(a1), imag(a0)-imag(a1)
		b2r, b2i := real(a2)+real(a3), imag(a2)+imag(a3)
		b3r, b3i := real(a2)-real(a3), imag(a2)-imag(a3)
		tr := wr*b3r - wi*b3i
		ti := wr*b3i + wi*b3r
		dst[base] = complex(b0r+b2r, b0i+b2i)
		dst[base+1] = complex(b1r+tr, b1i+ti)
		dst[base+2] = complex(b0r-b2r, b0i-b2i)
		dst[base+3] = complex(b1r-tr, b1i-ti)
	}
}

// base4GatherPair is base4Gather over the packed row re + i·im.
func base4GatherPair(dst []complex128, re, im []float64, perm []int, tw []complex128) {
	wr, wi := real(tw[1]), imag(tw[1])
	perm = perm[:len(dst)]
	for base := 0; base+3 < len(dst); base += 4 {
		j0, j1, j2, j3 := perm[base], perm[base+1], perm[base+2], perm[base+3]
		b0r, b0i := re[j0]+re[j1], im[j0]+im[j1]
		b1r, b1i := re[j0]-re[j1], im[j0]-im[j1]
		b2r, b2i := re[j2]+re[j3], im[j2]+im[j3]
		b3r, b3i := re[j2]-re[j3], im[j2]-im[j3]
		tr := wr*b3r - wi*b3i
		ti := wr*b3i + wi*b3r
		dst[base] = complex(b0r+b2r, b0i+b2i)
		dst[base+1] = complex(b1r+tr, b1i+ti)
		dst[base+2] = complex(b0r-b2r, b0i-b2i)
		dst[base+3] = complex(b1r-tr, b1i-ti)
	}
}

// radix4Store is radix4Pass as the last pass of a transform, one block
// spanning x: the results go to dst, which may be x, and when scaled
// each part is multiplied by s as scaleInto does.
func radix4Store(dst, x, tw []complex128, s float64, scaled bool) {
	size := len(x)
	quarter := size >> 2
	half := size >> 1
	tw = tw[:half]
	dst = dst[:size]
	for j := 0; j < quarter; j++ {
		i1 := j + quarter
		i2 := j + half
		i3 := i2 + quarter

		war, wai := real(tw[2*j]), imag(tw[2*j])
		wbr, wbi := real(tw[j]), imag(tw[j])
		wcr, wci := real(tw[j+quarter]), imag(tw[j+quarter])

		x0, x1, x2, x3 := x[j], x[i1], x[i2], x[i3]

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
		dst[j] = complex(y0r, y0i)
		dst[i1] = complex(y1r, y1i)
		dst[i2] = complex(y2r, y2i)
		dst[i3] = complex(y3r, y3i)
	}
}

// radix2Store is radix2Pass as the last pass of a transform, one block
// spanning x, storing and scaling as radix4Store does.
func radix2Store(dst, x, tw []complex128, s float64, scaled bool) {
	half := len(x) >> 1
	tw = tw[:half]
	dst = dst[:len(x)]
	for j := 0; j < half; j++ {
		wr, wi := real(tw[j]), imag(tw[j])
		y := x[j+half]
		tr := wr*real(y) - wi*imag(y)
		ti := wr*imag(y) + wi*real(y)
		xr, xi := real(x[j]), imag(x[j])
		y0r, y0i, y1r, y1i := xr+tr, xi+ti, xr-tr, xi-ti
		if scaled {
			y0r, y0i, y1r, y1i = y0r*s, y0i*s, y1r*s, y1i*s
		}
		dst[j] = complex(y0r, y0i)
		dst[j+half] = complex(y1r, y1i)
	}
}

// scratch is a pooled []complex128 used for column strips and packed
// real rows. Pools are keyed by length and shared by
// the serial and parallel paths; the wrapper struct (instead of a bare
// slice) keeps Get/Put free of per-call interface allocations after
// warm-up.
type scratch struct {
	buf []complex128
}

var scratchPools sync.Map // int -> *sync.Pool of *scratch

// scratchPoolFor returns the pool for length n. The Load fast path
// matters: LoadOrStore boxes its key and allocates the candidate pool
// on every call, which would put three small heap allocations on every
// 2-D transform; Load's key does not escape, so the hit path is
// allocation-free.
func scratchPoolFor(n int) *sync.Pool {
	if v, ok := scratchPools.Load(n); ok {
		return v.(*sync.Pool)
	}
	v, _ := scratchPools.LoadOrStore(n, &sync.Pool{})
	return v.(*sync.Pool)
}

func getScratch(n int) *scratch {
	if v := scratchPoolFor(n).Get(); v != nil {
		return v.(*scratch)
	}
	return &scratch{buf: make([]complex128, n)}
}

func putScratch(s *scratch) {
	if s == nil {
		return
	}
	scratchPoolFor(len(s.buf)).Put(s)
}

// Dir selects the transform direction of a batched 2-D pass.
type Dir int

const (
	// DirForward is the unnormalised forward transform.
	DirForward Dir = iota
	// DirInverse is the inverse transform with the 1/n per-dimension
	// normalisation.
	DirInverse
)

// Batch2D transforms every matrix of the batch in place, equivalent to
// transforming each alone — bit-identically so — but with
// two parallel sections for the whole batch instead of two per matrix.
// All matrices must share one shape, each side 2^k or 3·2^k.
func Batch2D(ms []*grid.CMat, dir Dir) { xform2D{inverse: dir == DirInverse}.batch(ms, 0) }

// xform2D is the one 2-D complex transform of the package: a 1-D pass
// over the live rows and a 1-D pass over every column, in either order,
// in place over one matrix or a same-shaped batch. Every exported 2-D
// entry point is a setting of it.
type xform2D struct {
	rowLive   []bool // rows the row pass transforms; nil = every row
	inverse   bool
	colsFirst bool // column pass before the row pass
}

// plans validates an h×w shape against the row mask and returns the
// row and column plans.
func (t xform2D) plans(h, w int) (rowPlan, colPlan *plan) {
	if t.rowLive != nil && len(t.rowLive) != h {
		panic(fmt.Sprintf("fft: row mask length %d does not match height %d", len(t.rowLive), h))
	}
	return planFor(w), planFor(h)
}

// fanOut resolves how many goroutines a transform over elems elements
// runs on: what parallel.Limit gives it, capped at limit when the caller
// set one (0 = no cap). One means the serial kernel.
func fanOut(limit, elems int) int {
	n := parallel.Limit(elems)
	if limit > 0 {
		n = min(n, limit)
	}
	return n
}

// serial is the kernel: both passes over m on the calling goroutine,
// through one scratch buffer that serves as the column strip and as the
// row.
func (t xform2D) serial(m *grid.CMat, rowPlan, colPlan *plan) {
	s := getScratch(scratchLen(m))
	if t.colsFirst {
		colPlan.columnsWith(m, 0, m.W, t.inverse, s.buf)
	}
	for y := 0; y < m.H; y++ {
		if t.rowLive == nil || t.rowLive[y] {
			row := m.Row(y)
			rowPlan.transformWith(row, row, s.buf, t.inverse)
		}
	}
	if !t.colsFirst {
		colPlan.columnsWith(m, 0, m.W, t.inverse, s.buf)
	}
	putScratch(s)
}

// scratchLen is the scratch a 2-D pass over m draws: a column strip,
// or a row where that is longer. Rows and strips share the one pool.
func scratchLen(m *grid.CMat) int { return max(colStrip*m.H, m.W) }

// one transforms a lone matrix: a batch of one, without a slice of its
// own to allocate.
func (t xform2D) one(m *grid.CMat) {
	rowPlan, colPlan := t.plans(m.H, m.W)
	limit := fanOut(0, m.H*m.W)
	if limit == 1 {
		t.serial(m, rowPlan, colPlan)
		return
	}
	f := fanPool.Get().(*fan)
	f.lone[0] = m
	f.complex2D(t, f.lone[:], rowPlan, colPlan, limit)
	f.release()
}

// batch transforms every matrix of ms, which must share one shape, with
// at most limit participating goroutines (0 = the pool width, 1 =
// strictly serial). The fan-out runs all live (matrix, row) pairs in
// one parallel section and all column strips in a second, so small
// per-kernel buffers still load-balance across the pool. Every row and
// every column strip is transformed by exactly one goroutine and the
// plans are immutable, so the output is bit-identical to the serial
// kernel at any limit, worker count or chunking.
func (t xform2D) batch(ms []*grid.CMat, limit int) {
	k := len(ms)
	if k == 0 {
		return
	}
	h, w := ms[0].H, ms[0].W
	for i, m := range ms {
		if m.H != h || m.W != w {
			panic(fmt.Sprintf("fft: batch shape mismatch: matrix %d is %dx%d, want %dx%d", i, m.H, m.W, h, w))
		}
	}
	rowPlan, colPlan := t.plans(h, w)
	if limit = fanOut(limit, k*h*w); limit == 1 {
		for _, m := range ms {
			t.serial(m, rowPlan, colPlan)
		}
		return
	}
	f := fanPool.Get().(*fan)
	f.complex2D(t, ms, rowPlan, colPlan, limit)
	f.release()
}

// fan is the state of one fanned-out 2-D transform. It is pooled
// together with its chunk functions, bound once when it is created, so
// that handing them to parallel.DoChunks costs nothing per call: a
// transform allocates no more fanned out than it does serial.
type fan struct {
	t                xform2D
	ms               []*grid.CMat
	lone             [1]*grid.CMat // backs ms for a lone matrix
	rowPlan, colPlan *plan
	live             []int // live row indices; every row when t.rowLive is nil

	// The real forward transform (ForwardReal2DBand) into lone[0], and the
	// real-output inverse (InverseRealBand) of spec through lone[0] into
	// out.
	src   *grid.Mat
	spec  *grid.CMat
	out   *grid.Mat
	b     int
	scale float64
	// bandStrips is the number of strips the column pass over the band's
	// columns 0..b is cut into (see cutBand).
	bandStrips int

	rowsStep, stripsStep, pairsStep, reflectStep, unpairStep func(lo, hi int)
	bandStep, hermitianStep                                  func(strip int)
}

var fanPool = sync.Pool{New: func() any {
	f := &fan{}
	f.rowsStep, f.stripsStep = f.rows, f.strips
	f.pairsStep, f.bandStep, f.reflectStep = f.pairs, f.band, f.reflect
	f.hermitianStep, f.unpairStep = f.hermitian, f.unpair
	return f
}}

// release drops the references into the caller's data and returns f to
// its pool.
func (f *fan) release() {
	f.t, f.ms, f.lone[0], f.src, f.spec, f.out = xform2D{}, nil, nil, nil, nil, nil
	fanPool.Put(f)
}

// complex2D is the fanned-out form of xform2D.serial over a batch.
func (f *fan) complex2D(t xform2D, ms []*grid.CMat, rowPlan, colPlan *plan, limit int) {
	f.t, f.ms, f.rowPlan, f.colPlan = t, ms, rowPlan, colPlan
	f.live = f.live[:0]
	for y := 0; y < ms[0].H; y++ {
		if t.rowLive == nil || t.rowLive[y] {
			f.live = append(f.live, y)
		}
	}
	strips := (ms[0].W + colStrip - 1) / colStrip
	if t.colsFirst {
		parallel.DoChunks(len(ms)*strips, limit, f.stripsStep)
	}
	parallel.DoChunks(len(ms)*len(f.live), limit, f.rowsStep)
	if !t.colsFirst {
		parallel.DoChunks(len(ms)*strips, limit, f.stripsStep)
	}
}

// rows transforms the live (matrix, row) pairs [lo, hi).
func (f *fan) rows(lo, hi int) {
	nl := len(f.live)
	s := getScratch(scratchLen(f.ms[0]))
	for idx := lo; idx < hi; idx++ {
		row := f.ms[idx/nl].Row(f.live[idx%nl])
		f.rowPlan.transformWith(row, row, s.buf, f.t.inverse)
	}
	putScratch(s)
}

// strips runs the column pass of the (matrix, strip) pairs [lo, hi), one
// strip per work item, so small matrices still load-balance across the
// pool.
func (f *fan) strips(lo, hi int) {
	w := f.ms[0].W
	strips := (w + colStrip - 1) / colStrip
	s := getScratch(scratchLen(f.ms[0]))
	for t := lo; t < hi; t++ {
		b0 := (t % strips) * colStrip
		f.colPlan.stripPass(f.ms[t/strips], b0, min(colStrip, w-b0), f.t.inverse, s.buf)
	}
	putScratch(s)
}

// FlipFreq returns the corner-layout spectrum H(-f) for a corner-layout
// spectrum H(f): index k maps to (n-k) mod n per dimension. It is the
// frequency-domain form of spatial coordinate reversal, used by the
// adjoint (correlation) pass of the ILT gradient.
func FlipFreq(m *grid.CMat) *grid.CMat {
	out := grid.NewCMat(m.H, m.W)
	for y := 0; y < m.H; y++ {
		sy := (m.H - y) % m.H
		src := m.Row(y)
		dst := out.Row(sy)
		for x := 0; x < m.W; x++ {
			dst[(m.W-x)%m.W] = src[x]
		}
	}
	return out
}

// ResampleCentered samples a square centre-layout spectrum at fractional
// frequencies onto an outSize×outSize centre-layout grid, with
// out(u) = src(u/stretch) for centred index offsets u, interpolated
// bilinearly. It unifies the two kernel resamplings of the paper:
//
//   - Eq. (3) full-area simulation: outSize = s·N, stretch = s — the
//     kernel is laid onto the larger sN frequency grid.
//   - Eq. (9) coarse-grid simulation: outSize = N, stretch = s — the
//     mask was downsampled by s, so each coarse pixel spans s fine
//     pixels and the kernel support widens by s on the same grid.
//
// Source support of diameter p maps to diameter stretch·p, which must
// fit inside outSize or the kernel is silently truncated.
//
// Only a window of the output grid is evaluated: the rows and columns
// whose bilinear neighbours touch the bounding box of src's non-(+0)
// entries. Every other point has four +0 neighbours and is exactly +0,
// so the window, whose entry (0, 0) is output point (y0, x0), is the
// whole result. A source holding only +0 gives an empty window.
func ResampleCentered(src *grid.CMat, outSize, stretch int) (win *grid.CMat, y0, x0 int) {
	if src.H != src.W {
		panic("fft: ResampleCentered requires a square spectrum")
	}
	if outSize < 2 || stretch < 1 {
		panic(fmt.Sprintf("fft: invalid resample outSize=%d stretch=%d", outSize, stretch))
	}
	// Both axes map alike: centred frequency i−outSize/2 of the output
	// sits at source index (i−outSize/2)/stretch + H/2, between lo[i] and
	// lo[i]+1 at fraction frac[i].
	lo := make([]int, outSize)
	frac := make([]float64, outSize)
	cSrc, cOut, fs := float64(src.H/2), outSize/2, float64(stretch)
	for i := range lo {
		s := float64(i-cOut)/fs + cSrc
		lo[i] = int(math.Floor(s))
		frac[i] = s - float64(lo[i])
	}
	rlo, rhi, clo, chi := supportBox(src)
	y0, y1 := touching(lo, rlo, rhi)
	x0, x1 := touching(lo, clo, chi)
	if y0 == y1 || x0 == x1 {
		return &grid.CMat{}, 0, 0
	}
	win = grid.NewCMat(y1-y0, x1-x0)
	for y := y0; y < y1; y++ {
		fy := frac[y]
		a, c := srcRow(src, lo[y]), srcRow(src, lo[y]+1)
		dst := win.Row(y - y0)
		for x := x0; x < x1; x++ {
			l, fx := lo[x], frac[x]
			top := at(a, l)*complex(1-fx, 0) + at(a, l+1)*complex(fx, 0)
			bot := at(c, l)*complex(1-fx, 0) + at(c, l+1)*complex(fx, 0)
			dst[x-x0] = top*complex(1-fy, 0) + bot*complex(fy, 0)
		}
	}
	return win, y0, x0
}

// supportBox returns the rows rlo…rhi and columns clo…chi that bound the
// entries of m whose bits are not those of +0; rlo > rhi when there are
// none.
func supportBox(m *grid.CMat) (rlo, rhi, clo, chi int) {
	rlo, rhi, clo, chi = m.H, -1, m.W, -1
	for y := 0; y < m.H; y++ {
		for x, v := range m.Row(y) {
			if math.Float64bits(real(v)) != 0 || math.Float64bits(imag(v)) != 0 {
				rlo, rhi = min(rlo, y), max(rhi, y)
				clo, chi = min(clo, x), max(chi, x)
			}
		}
	}
	return rlo, rhi, clo, chi
}

// touching returns the range [i0, i1) of output indices whose neighbours
// lo[i] or lo[i]+1 fall in the source range slo…shi. lo is
// non-decreasing, so the range is contiguous.
func touching(lo []int, slo, shi int) (i0, i1 int) {
	for i0 < len(lo) && lo[i0]+1 < slo {
		i0++
	}
	i1 = i0
	for i1 < len(lo) && lo[i1] <= shi {
		i1++
	}
	return i0, i1
}

// srcRow returns row y of m, or nil outside it.
func srcRow(m *grid.CMat, y int) []complex128 {
	if y < 0 || y >= m.H {
		return nil
	}
	return m.Row(y)
}

// at returns row[x], or 0 outside the row.
func at(row []complex128, x int) complex128 {
	if x < 0 || x >= len(row) {
		return 0
	}
	return row[x]
}
