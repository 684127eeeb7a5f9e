// Package fft implements the fast Fourier transforms used by the
// lithography simulator: a mixed radix-4/radix-2 complex transform with
// cached per-stage twiddle tables, one 2-D complex transform over
// grid.CMat, a real-input forward transform exploiting Hermitian
// symmetry and the consumer's column band (ForwardReal2D,
// ForwardReal2DBand), centre-shift utilities, and the fractional
// frequency interpolation behind the sN-grid kernel resampling of
// Eq. (3)/(8).
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
// layout); SwapQuadrants converts between that and the DC-at-centre
// layout used for human-readable kernel definitions. Sizes must be
// powers of two.
//
// Performance design (see README "Performance engineering"): the 1-D
// kernel is a decimation-in-time transform whose radix-2 stages are
// fused in pairs into radix-4 passes — each pass loads four elements,
// applies both constituent butterflies with values held in float64
// registers, and stores four, halving the number of sweeps over the
// data array relative to a plain radix-2 loop. Every pass reads a
// contiguous per-stage twiddle table (no strided indexing into one
// master table). For odd log2(n) the final unpaired stage runs as a
// radix-2 pass, so all power-of-two sizes are supported. The arithmetic
// performed per element is identical, operation for operation, to the
// textbook radix-2 algorithm, so results are bit-identical to it.
//
// The column direction of a 2-D transform never transposes: the same
// passes run over row segments, each butterfly as one loop over the
// contiguous columns of the rows it couples with its twiddles held in
// registers (columns.go), a strip of columns at a time. The real
// forward transform splits, column-transforms and reflects only the
// columns its consumer reads. Both are exact: every entry carries the
// bits of the column-at-a-time transform.
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

	"mgsilt/internal/grid"
	"mgsilt/internal/parallel"
)

// plan holds the precomputed bit-reversal permutation and per-stage
// twiddle tables for a transform of a fixed power-of-two length. Plans
// are immutable once built and safe for concurrent use.
type plan struct {
	n   int
	rev []int // bit-reversal permutation
	// stages are executed in order over bit-reversed input. Each entry
	// is either a fused radix-4 pass covering the two radix-2 stages of
	// sizes size/2 and size, or — as the final entry when log2(n) is
	// odd — a plain radix-2 pass of size n.
	stages []stage
}

// stage is one butterfly pass. tw holds size/2 twiddles
// w^j = exp(-2πi·j/size) for j in [0, size/2); a fused radix-4 pass
// finds the twiddles of both constituent radix-2 stages inside that one
// contiguous table (stage size/2 uses tw[2j], stage size uses tw[j] and
// tw[j+size/4]). twi is the element-wise conjugate of tw, precomputed so
// the inverse transform reads its twiddles from a table instead of
// negating inside the butterfly loop; conjugation only flips the sign
// bit of the imaginary part, so the inverse arithmetic is bit-identical
// to the former in-loop negation.
type stage struct {
	size   int
	radix2 bool
	tw     []complex128
	twi    []complex128
}

var (
	plansMu sync.Mutex
	plans   = map[int]*plan{}
)

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

func planFor(n int) *plan {
	if !IsPow2(n) {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	plansMu.Lock()
	defer plansMu.Unlock()
	if p, ok := plans[n]; ok {
		return p
	}
	p := &plan{n: n, rev: make([]int, n)}
	shift := bits.UintSize - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		p.rev[i] = int(bits.Reverse(uint(i)) >> shift)
	}
	// Fuse radix-2 stages in pairs from the bottom: sizes (2,4) →
	// radix-4 pass of span 4, (8,16) → span 16, … When log2(n) is odd
	// one stage of span n remains and runs as a radix-2 pass.
	done := 1
	for done*4 <= n {
		size := done * 4
		tw := twiddles(size)
		p.stages = append(p.stages, stage{size: size, tw: tw, twi: conjugated(tw)})
		done = size
	}
	if done < n {
		tw := twiddles(n)
		p.stages = append(p.stages, stage{size: n, radix2: true, tw: tw, twi: conjugated(tw)})
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

// transform runs the in-place mixed-radix FFT over x. When inverse is
// true the conjugate twiddles are used and the result is scaled by 1/n.
func (p *plan) transform(x []complex128, inverse bool) {
	n := p.n
	if len(x) != n {
		panic(fmt.Sprintf("fft: buffer length %d does not match plan %d", len(x), n))
	}
	for i, j := range p.rev {
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for si := range p.stages {
		st := &p.stages[si]
		tw := st.tw
		if inverse {
			tw = st.twi
		}
		switch {
		case st.radix2:
			radix2Pass(x, tw, st.size)
		case st.size == 4:
			base4Pass(x, tw)
		default:
			radix4Pass(x, tw, st.size)
		}
	}
	if inverse {
		inv := 1 / float64(n)
		for i, v := range x {
			x[i] = complex(real(v)*inv, imag(v)*inv)
		}
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

// radix2Pass is the final unpaired stage for odd log2(n): one plain
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
// All matrices must share one power-of-two shape.
func Batch2D(ms []*grid.CMat, dir Dir) { Batch2DLimit(ms, dir, 0) }

// Batch2DLimit is Batch2D with the parallel fan-out capped at limit
// participating goroutines (0 = the pool width, 1 = strictly serial).
func Batch2DLimit(ms []*grid.CMat, dir Dir, limit int) {
	xform2D{inverse: dir == DirInverse}.batch(ms, limit)
}

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

// serial is the kernel: both passes over m on the calling goroutine.
func (t xform2D) serial(m *grid.CMat, rowPlan, colPlan *plan) {
	if t.colsFirst {
		colPlan.columnsPass(m, 0, m.W, t.inverse)
	}
	for y := 0; y < m.H; y++ {
		if t.rowLive == nil || t.rowLive[y] {
			rowPlan.transform(m.Row(y), t.inverse)
		}
	}
	if !t.colsFirst {
		colPlan.columnsPass(m, 0, m.W, t.inverse)
	}
}

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

	// The real forward transform (ForwardReal2DBand) into lone[0].
	src *grid.Mat
	b   int

	rowsStep, stripsStep, pairsStep, bandStep, reflectStep func(lo, hi int)
}

var fanPool = sync.Pool{New: func() any {
	f := &fan{}
	f.rowsStep, f.stripsStep = f.rows, f.strips
	f.pairsStep, f.bandStep, f.reflectStep = f.pairs, f.band, f.reflect
	return f
}}

// release drops the references into the caller's data and returns f to
// its pool.
func (f *fan) release() {
	f.t, f.ms, f.lone[0], f.src = xform2D{}, nil, nil, nil
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
	for idx := lo; idx < hi; idx++ {
		f.rowPlan.transform(f.ms[idx/nl].Row(f.live[idx%nl]), f.t.inverse)
	}
}

// strips runs the column pass of the (matrix, strip) pairs [lo, hi), one
// strip per work item, so small matrices still load-balance across the
// pool.
func (f *fan) strips(lo, hi int) {
	h, w := f.ms[0].H, f.ms[0].W
	strips := (w + colStrip - 1) / colStrip
	s := getScratch(colStrip * h)
	for t := lo; t < hi; t++ {
		b0 := (t % strips) * colStrip
		f.colPlan.stripPass(f.ms[t/strips], b0, min(colStrip, w-b0), f.t.inverse, s.buf)
	}
	putScratch(s)
}

// SwapQuadrants converts between corner and centre spectrum layouts in
// place and returns m. Both dimensions must be even, which makes the
// quadrant swap a perfect 2-cycle: element (y, x) trades places with
// ((y+H/2) mod H, (x+W/2) mod W) and no scratch matrix is needed.
func SwapQuadrants(m *grid.CMat) *grid.CMat {
	if m.H%2 != 0 || m.W%2 != 0 {
		panic("fft: quadrant swap requires even dimensions")
	}
	hh, hw := m.H/2, m.W/2
	for y := 0; y < hh; y++ {
		a := m.Row(y)
		b := m.Row(y + hh)
		for x := 0; x < hw; x++ {
			a[x], b[x+hw] = b[x+hw], a[x]
			a[x+hw], b[x] = b[x], a[x+hw]
		}
	}
	return m
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
// frequencies: the output is outSize×outSize with
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
func ResampleCentered(src *grid.CMat, outSize, stretch int) *grid.CMat {
	if src.H != src.W {
		panic("fft: ResampleCentered requires a square spectrum")
	}
	if outSize < 2 || stretch < 1 {
		panic(fmt.Sprintf("fft: invalid resample outSize=%d stretch=%d", outSize, stretch))
	}
	out := grid.NewCMat(outSize, outSize)
	cSrc := float64(src.H / 2)
	cOut := outSize / 2
	fs := float64(stretch)
	for y := 0; y < outSize; y++ {
		// Centred frequency of output row y is (y-cOut); the matching
		// source frequency is (y-cOut)/stretch.
		sy := float64(y-cOut)/fs + cSrc
		y0 := int(math.Floor(sy))
		fy := sy - float64(y0)
		for x := 0; x < outSize; x++ {
			sx := float64(x-cOut)/fs + cSrc
			x0 := int(math.Floor(sx))
			fx := sx - float64(x0)
			out.Set(y, x, bilinearAt(src, y0, x0, fy, fx))
		}
	}
	return out
}

func bilinearAt(m *grid.CMat, y0, x0 int, fy, fx float64) complex128 {
	sample := func(y, x int) complex128 {
		if y < 0 || y >= m.H || x < 0 || x >= m.W {
			return 0
		}
		return m.At(y, x)
	}
	a := sample(y0, x0)
	b := sample(y0, x0+1)
	c := sample(y0+1, x0)
	d := sample(y0+1, x0+1)
	top := a*complex(1-fx, 0) + b*complex(fx, 0)
	bot := c*complex(1-fx, 0) + d*complex(fx, 0)
	return top*complex(1-fy, 0) + bot*complex(fy, 0)
}
