// Package litho implements the forward lithography model of the paper
// (Section 2.1) and its adjoint, which together drive every ILT solver
// in this repository:
//
//   - Aerial image by the Hopkins/SOCS sum of Eq. (1), evaluated with
//     FFTs per Eq. (2).
//   - Large-area simulation on sN×sN layouts via fractional-frequency
//     kernel resampling, Eq. (3).
//   - Coarse-grid simulation of factor-s downsampled masks, Eq. (9).
//   - A constant-threshold photoresist for inspection (Eq. 4) and a
//     sigmoid-relaxed resist for gradient-based optimisation.
//   - Process corners for the PVBand metric (Definition 3): defocus
//     with -2% dose ("inner") and nominal focus with +2% dose
//     ("outer").
//
// The adjoint gradient of the resist L2 loss is computed entirely in
// the frequency domain, by one routine over a batch of (mask, target)
// pairs — LossGradBatch, with LossGrad its batch of one; see
// evaluation.condition for the derivation. Aerial is the forward half of
// the same routine: every Hopkins sum runs on the smallest alias-free
// grid of its kernel set (see reduced) and only the intensity is carried
// back to the mask's grid, by one Fourier up-sampling. A prepared set
// holds its spectra on that grid alone — a clip-sized inspection keeps
// no clip-sized spectrum — and its adjoint spectra only once a LossGrad
// has run over it.
//
// Every Hopkins sum, imaging and solver path alike, runs over the kernel
// set with its conjugate pairs folded: two kernels of equal weight with
// H_j(f) = conj(H_i(−f)) give conjugate fields on a real mask, so one of
// them is evaluated at twice the weight (foldConjugatePairs). The pairs
// are searched for and verified numerically on whatever sets New is
// given. The nominal-focus set of the default optics — a centro-symmetric
// source behind a real, even pupil — folds from twelve kernels to six;
// its defocused companion has a complex pupil, holds no such pair and is
// evaluated as given. KernelsEvaluatedTotal counts the kernels evaluated,
// so a folded pair counts once.
//
// On amd64 with AVX2 the per-pixel sweeps — the two sigmoids, the
// intensity sum, the adjoint source and the complex products of the
// forward and adjoint passes — run as assembly twins (sweeps_amd64.s)
// with the IEEE operations of their Go loops in order: the choice moves
// no bit. The Go loops are the reference, finish what a twin leaves of a
// row, and are every other CPU's path.
package litho

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"mgsilt/internal/cpu"
	"mgsilt/internal/fft"
	"mgsilt/internal/grid"
	"mgsilt/internal/kernels"
	"mgsilt/internal/parallel"
)

// useAVX2 routes the per-pixel sweeps to their AVX2 twins in
// sweeps_amd64.s, decided once from CPUID; the tests clear it to run the
// Go loops.
var useAVX2 = cpu.HasAVX2()

// Focus selects between the nominal-focus and defocused kernel sets.
type Focus int

const (
	FocusNominal Focus = iota
	FocusDefocus
)

// Condition is a process condition: a focus setting plus a dose factor
// that scales the aerial intensity.
type Condition struct {
	Focus Focus
	Dose  float64
}

// Config holds the resist and process-window parameters.
type Config struct {
	// Threshold is the constant resist threshold of Eq. (4). The
	// ICCAD-2013 value 0.225 places the printed edge of a large
	// feature at its drawn edge (field amplitude 0.5 → intensity 0.25).
	Threshold float64
	// SigmoidSteep is the steepness of the sigmoid resist relaxation
	// used during optimisation.
	SigmoidSteep float64
	// DoseDelta is the ± dose variation of the process window (0.02
	// in the paper).
	DoseDelta float64
}

// DefaultConfig returns the resist parameters used by the experiment
// suite.
func DefaultConfig() Config {
	return Config{Threshold: 0.225, SigmoidSteep: 40, DoseDelta: 0.02}
}

// Simulator evaluates the forward model and its adjoint for one pair
// of kernel sets. It is safe for concurrent use; prepared kernel sets
// are cached per (focus, grid size, stretch).
type Simulator struct {
	n   int
	cfg Config

	// nominal and defocus are the sets as given: Fingerprint hashes them
	// and the brute-force oracle sums them. Everything that is evaluated is
	// prepared from folded, indexed by Focus — the same sets with their
	// conjugate pairs folded (see foldConjugatePairs).
	nominal *kernels.Set
	defocus *kernels.Set
	folded  [2]*kernels.Set

	fpOnce sync.Once
	fp     string

	mu    sync.Mutex
	cache map[prepKey]*reduced

	// forceDense makes every set prepared from now on evaluate on the
	// full grid. Tests set it on a fresh simulator to obtain the dense
	// reference the reduced evaluation is checked against.
	forceDense bool
}

type prepKey struct {
	focus   Focus
	size    int
	stretch int
}

// reduced is a prepared kernel set — one (focus, grid, stretch)
// combination of the folded sets — held on the smallest alias-free grid,
// where imaging and the solver path evaluate the Hopkins sum and its
// adjoint.
//
// The kernel spectra vanish outside |f| ≤ B per axis, so every coherent
// field A_k = F⁻¹(H_k ⊙ F(mask)) is band-limited to ±B and is fully
// described by its samples on an M-point grid per axis, M ≥ 2B+1. Two
// products decide how small M may be. The intensity Σ w_k|A_k|² has band
// ±2B, exact on the M grid when 2B < M/2. The adjoint source
// g ⊙ conj(A_k) is consumed only through the ±B rows of its spectrum,
// which see g only through its ±2B low-pass; the product of that
// low-passed g with conj(A_k) has band ±3B, and sampling it on M points
// folds frequency f onto f ± M, so the ±B block stays clean when
// M − 3B > B. Both conditions are M > 4B; M is the smallest length of the
// form 2^k or 3·2^k satisfying it (B = 5, 10, 21 → 24, 48, 96: 0.5625×
// the points of the power of two above 4B), or the grid size itself when
// that is no smaller (a band too wide for the grid) — then nothing is
// cropped and the evaluation is the plain dense one.
//
// B is measured at the bit level from the resampled spectra, like the
// row-support masks, so nothing here depends on how the kernels were
// generated. Preparation never holds a full-size spectrum below
// M == size: each kernel is resampled on the window its support reaches
// (fft.ResampleCentered), B is measured there, and the ±B block goes
// straight from the window onto the M grid (newReduced).
//
// The row-support masks drive the pruned transforms: the spectra are
// band-limited, so in corner layout only the rows intersecting the
// (shifted) pupil disk are ever non-zero. A row is dead only when every
// entry is exactly +0, which is what fft.Inverse2DPruned's exactness
// contract requires.
type reduced struct {
	size, m int
	b       int // band half-width B of the spectra

	// Crop index maps between the two grids, nil when M == size: entry i
	// of band1 is the corner-layout index of the i-th frequency of the ±B
	// band on the full grid, and of band1M on the M grid. The steps that
	// leave the M grid (upsample, lowpass, the gradient's inverse) need no
	// map: fft.InverseRealBand reads a band by frequency.
	band1, band1M []int

	weights []float64
	// freq are the forward spectra on the M grid: the ±B block of H_k
	// scaled by (M/size)², the ratio of the two inverse-DFT
	// normalisations, so the M-point inverse of freq ⊙ crop(F(mask))
	// yields samples of the full-size field. At M == size they are H_k.
	freq    []*grid.CMat
	fwdLive []bool // union row support of freq

	// The adjoint half, built by solver on the first LossGrad over the
	// set. adj are the ±B blocks of 2·w_k·H_k(−f), unscaled: the
	// low-passed g is carried (size/M)² too large (its spectrum is cropped
	// without rescaling), which is exactly the factor between the M-point
	// and the full-size forward DFT of the adjoint source. On a 3·2^k grid
	// (size/M)² is not a power of two (64/9 for a 128-point tile on 48
	// points, 16/9 for a 128-point coarse grid on 96), so undoing freq's
	// factor rounds once per entry.
	adjOnce sync.Once
	adj     []*grid.CMat
	adjLive []bool // union row support of adj
}

// New builds a Simulator from a nominal and a defocused kernel set,
// which must share the same native grid size.
func New(nominal, defocus *kernels.Set, cfg Config) (*Simulator, error) {
	if nominal == nil || defocus == nil {
		return nil, fmt.Errorf("litho: both kernel sets are required")
	}
	if nominal.N != defocus.N {
		return nil, fmt.Errorf("litho: kernel grids differ: %d vs %d", nominal.N, defocus.N)
	}
	if cfg.Threshold <= 0 || cfg.Threshold >= 1 {
		return nil, fmt.Errorf("litho: threshold %v out of (0,1)", cfg.Threshold)
	}
	if cfg.SigmoidSteep <= 0 {
		return nil, fmt.Errorf("litho: sigmoid steepness must be positive")
	}
	if cfg.DoseDelta < 0 || cfg.DoseDelta >= 1 {
		return nil, fmt.Errorf("litho: dose delta %v out of [0,1)", cfg.DoseDelta)
	}
	return &Simulator{
		n:       nominal.N,
		cfg:     cfg,
		nominal: nominal,
		defocus: defocus,
		folded:  [2]*kernels.Set{FocusNominal: foldConjugatePairs(nominal), FocusDefocus: foldConjugatePairs(defocus)},
		cache:   map[prepKey]*reduced{},
	}, nil
}

// StandardDefocus is the defocus of the process-window kernel set of
// the standard optics.
const StandardDefocus = 0.8

// NewStandard builds the simulator every binary, worker, experiment and
// example runs on: the default kernel set for grid n, its companion at
// StandardDefocus and the default resist. Results only agree bit for bit
// across processes that construct their optics identically, so the
// recipe lives here alone.
func NewStandard(n int) (*Simulator, error) {
	kc := kernels.DefaultConfig(n)
	nominal, err := kernels.Generate(kc)
	if err != nil {
		return nil, err
	}
	defocus, err := kernels.Defocused(kc, StandardDefocus)
	if err != nil {
		return nil, err
	}
	return New(nominal, defocus, DefaultConfig())
}

var (
	standardMu sync.Mutex
	standard   = map[int]*Simulator{}
)

// Standard returns the process-wide standard simulator for grid n,
// building it with NewStandard on first use. Long-lived servers that
// see the same grid sizes job after job share it; a Simulator is safe
// for concurrent use, so every caller may hold the same one. Callers
// that build one simulator for a run call NewStandard directly.
func Standard(n int) (*Simulator, error) {
	standardMu.Lock()
	defer standardMu.Unlock()
	if sim, ok := standard[n]; ok {
		return sim, nil
	}
	sim, err := NewStandard(n)
	if err != nil {
		return nil, err
	}
	standard[n] = sim
	return sim, nil
}

// N returns the native simulation grid size.
func (s *Simulator) N() int { return s.n }

// Config returns the resist configuration.
func (s *Simulator) Config() Config { return s.cfg }

// Nominal returns the nominal process condition.
func (s *Simulator) Nominal() Condition { return Condition{FocusNominal, 1} }

// Inner returns the inner process-window corner of Definition 3:
// defocus with -DoseDelta dose.
func (s *Simulator) Inner() Condition { return Condition{FocusDefocus, 1 - s.cfg.DoseDelta} }

// Outer returns the outer process-window corner of Definition 3:
// nominal focus with +DoseDelta dose.
func (s *Simulator) Outer() Condition { return Condition{FocusNominal, 1 + s.cfg.DoseDelta} }

// preparedFor returns the set evaluated for one (focus, grid, stretch)
// combination, preparing it on first use.
func (s *Simulator) preparedFor(focus Focus, size, stretch int) *reduced {
	key := prepKey{focus, size, stretch}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.cache[key]; ok {
		return r
	}
	r := newReduced(s.folded[focus], size, stretch, s.forceDense)
	s.cache[key] = r
	return r
}

// unionRowSupport marks every row holding a non-(+0) entry in any of
// the matrices. The test is at the bit level: an entry whose real or
// imaginary bits differ from +0 makes the row live, so dead rows are
// guaranteed to be exactly +0 — the fft pruned-transform contract.
func unionRowSupport(ms []*grid.CMat) []bool {
	if len(ms) == 0 {
		return nil
	}
	live := make([]bool, ms[0].H)
	for _, m := range ms {
		for y := 0; y < m.H; y++ {
			if live[y] {
				continue
			}
			for _, v := range m.Row(y) {
				if !isPosZero(v) {
					live[y] = true
					break
				}
			}
		}
	}
	return live
}

func isPosZero(v complex128) bool {
	return math.Float64bits(real(v)) == 0 && math.Float64bits(imag(v)) == 0
}

// solver returns r with its adjoint spectra, building them on first use:
// sets that only ever image (the clip-sized ones inspection prepares)
// never hold them.
func (r *reduced) solver() *reduced {
	r.adjOnce.Do(func() {
		// Fold the 2·w_k adjoint weight into the flipped spectrum once:
		// the products are the bits the inner loop would produce, as
		// complex multiplication commutes in floating point. freq
		// carries the (M/size)² forward factor; one product by
		// 2·w_k·(size/M)² removes it — exactly when M is a power of two,
		// to within a rounding of 2·w_k times the unscaled crop when it
		// is 3·2^k.
		unscale := float64(r.size*r.size) / float64(r.m*r.m)
		for i, h := range r.freq {
			r.adj = append(r.adj, fft.FlipFreq(h).Scale(complex(2*r.weights[i]*unscale, 0)))
		}
		r.adjLive = unionRowSupport(r.adj)
	})
	return r
}

// window is one kernel resampled onto a size-point grid: the
// centre-layout block fft.ResampleCentered evaluates, whose entry (0, 0)
// is point (y0, x0) of the grid. Every point outside it is +0.
type window struct {
	*grid.CMat
	y0, x0 int
}

// bandHalfWidth returns B, the largest per-axis frequency magnitude at
// which any of the windows of a size-point grid holds a non-(+0) entry.
func bandHalfWidth(wins []window, size int) int {
	b := 0
	for _, w := range wins {
		for y := 0; y < w.H; y++ {
			fy := abs(w.y0 + y - size/2)
			for x, v := range w.Row(y) {
				if f := max(fy, abs(w.x0+x-size/2)); f > b && !isPosZero(v) {
					b = f
				}
			}
		}
	}
	return b
}

func abs(v int) int { return max(v, -v) }

// reducedSide returns M for a band half-width b on a size-point grid:
// the smallest 2^k or 3·2^k above 4b, or size when that is no smaller.
func reducedSide(b, size int) int {
	m2, m3 := 1, 3
	for m2 <= 4*b {
		m2 <<= 1
	}
	for m3 <= 4*b {
		m3 <<= 1
	}
	return min(m2, m3, size)
}

// newReduced prepares set for a size-point grid at the given kernel
// stretch; dense keeps it on the full grid. Each kernel is resampled on
// its window alone, B is measured on the windows, and the ±B block of
// each — scaled by (M/size)² below M == size — is written straight into
// its M×M corner-layout spectrum: no size×size spectrum exists unless M
// is size.
func newReduced(set *kernels.Set, size, stretch int, dense bool) *reduced {
	wins := make([]window, len(set.Kernels))
	weights := make([]float64, len(set.Kernels))
	for i, k := range set.Kernels {
		w := &wins[i]
		w.CMat, w.y0, w.x0 = fft.ResampleCentered(k.Freq, size, stretch)
		weights[i] = k.Weight
	}
	b := bandHalfWidth(wins, size)
	r := &reduced{size: size, m: size, b: b, weights: weights}
	if !dense {
		r.m = reducedSide(b, size)
	}
	m := r.m
	if m != size {
		r.band1, r.band1M = bandIndex(b, size), bandIndex(b, m)
	}
	scale := complex(float64(m*m)/float64(size*size), 0)
	r.freq = make([]*grid.CMat, len(wins))
	for i, w := range wins {
		h := grid.NewCMat(m, m)
		for y := 0; y < w.H; y++ {
			fy := w.y0 + y - size/2
			if abs(fy) > b {
				continue
			}
			dst := h.Row((fy + m) % m)
			for x, v := range w.Row(y) {
				fx := w.x0 + x - size/2
				if abs(fx) > b {
					continue
				}
				// At M == size the spectrum is H_k as resampled: a
				// product by 1 could flip the sign of a zero.
				if m != size {
					v *= scale
				}
				dst[(fx+m)%m] = v
			}
		}
		r.freq[i] = h
	}
	r.fwdLive = unionRowSupport(r.freq)
	return r
}

// maskBand is the half-width of the column band of F(mask) that an
// evaluation over r reads: cropMask's ±B, or the whole spectrum at
// M == size.
func (r *reduced) maskBand() int {
	if r.m == r.size {
		return r.size / 2
	}
	return r.b
}

// bandIndex lists the corner-layout indices of the frequencies −b…b on
// an n-point axis, in the order 0…b, −b…−1.
func bandIndex(b, n int) []int {
	idx := make([]int, 0, 2*b+1)
	for f := 0; f <= b; f++ {
		idx = append(idx, f)
	}
	for f := -b; f < 0; f++ {
		idx = append(idx, n+f)
	}
	return idx
}

// copyBand moves one frequency band between grids: entry (dstIdx[i],
// dstIdx[j]) of dst becomes entry (srcIdx[i], srcIdx[j]) of src. Entries
// of dst outside the band are left alone.
func copyBand(dst *grid.CMat, dstIdx []int, src *grid.CMat, srcIdx []int) {
	for i, sy := range srcIdx {
		sr, dr := src.Row(sy), dst.Row(dstIdx[i])
		for j, sx := range srcIdx {
			dr[dstIdx[j]] = sr[sx]
		}
	}
}

// checkMask validates the geometry of a full-resolution mask: square,
// power-of-two multiple of N.
func (s *Simulator) checkMask(mask *grid.Mat) {
	if mask.H != mask.W {
		panic(fmt.Sprintf("litho: mask must be square, got %dx%d", mask.H, mask.W))
	}
	if mask.H%s.n != 0 || !fft.IsPow2(mask.H/s.n) {
		panic(fmt.Sprintf("litho: mask size %d is not a power-of-two multiple of N=%d", mask.H, s.n))
	}
}

// kernelStretch converts grid size plus pixel stretch into the kernel
// resampling factor of fft.ResampleCentered. A mask of size G whose
// pixels each span p fine pixels covers G·p fine pixels, so frequency
// bin u corresponds to u/(G·p) cycles per fine pixel, which sits at
// index u·N/(G·p) of the native kernel grid: the kernels must be
// stretched by G·p/N. This unifies Eq. (3) (G = sN, p = 1 → s) and
// Eq. (9) (G = N, p = s → s), and covers the sub-native grids used by
// the multi-level solver (G = N/2, p = 2 → 1).
func (s *Simulator) kernelStretch(size, pixelStretch int) int {
	t := size * pixelStretch
	if t%s.n != 0 || t/s.n < 1 {
		panic(fmt.Sprintf("litho: grid %d with stretch %d does not cover a multiple of N=%d", size, pixelStretch, s.n))
	}
	return t / s.n
}

// Aerial computes the aerial image of a full-resolution mask under the
// given condition's focus. The mask must be sN×sN for power-of-two s;
// larger-than-native masks use the Eq. (3) resampled kernels. Dose is
// not applied here — it scales intensity at the resist (see Wafer).
//
// The Hopkins sum runs on the kernel set's reduced grid (see reduced);
// its intensity has band ±2B < M/2, so Fourier interpolation carries it
// onto the mask's grid exactly up to rounding. The image is drawn from
// the grid pool, like LossGrad's gradient.
func (s *Simulator) Aerial(mask *grid.Mat, cond Condition) *grid.Mat {
	s.checkMask(mask)
	return s.aerial(mask, 1, cond.Focus)
}

// workersFor resolves the kernel-loop parallelism for a k-kernel
// evaluation: the shared pool width capped at k.
func workersFor(k int) int {
	return max(1, min(parallel.Workers(), k))
}

// aerial is the forward half of the evaluation on one mask: F(mask)
// cropped to the set's band, the fields and their intensity on its M
// grid, the intensity up-sampled to the mask's grid.
func (s *Simulator) aerial(mask *grid.Mat, pixelStretch int, focus Focus) *grid.Mat {
	e := evaluationPool.Get().(*evaluation)
	e.pair[0] = mask
	e.begin(s, e.pair[:1], pixelStretch)
	r := s.preparedFor(focus, e.size, e.kernelStretch)
	e.band = r.maskBand()
	e.transform(0)
	e.forward(r)
	grid.PutCMats(e.fields)
	grid.PutCMats(e.fms)
	intensity := e.intens[0]
	e.intens[0] = nil
	e.release()
	return intensity
}

// kernelsEvaluated counts every coherent kernel run through a Hopkins
// sum since process start, exported to the service /metrics endpoint as
// ilt_kernels_evaluated_total.
var kernelsEvaluated atomic.Int64

// KernelsEvaluatedTotal returns the process-wide count of per-kernel
// Hopkins evaluations (one unit = one kernel in one condition pass). It
// counts what is evaluated: a folded conjugate pair is one kernel.
func KernelsEvaluatedTotal() int64 { return kernelsEvaluated.Load() }

// prodLive writes dst = a ⊙ b on the live rows and zero-fills the dead
// rows. The products on live rows are the plain element-wise complex
// multiplications; the dead rows of the product are known zero because
// b's dead rows are zero, but dst is a pooled buffer carrying stale
// bits, so they are explicitly reset to +0 — exactly the dead-row
// contract fft.Inverse2DPruned requires.
func prodLive(dst, a, b *grid.CMat, live []bool) {
	for y := 0; y < dst.H; y++ {
		dr := dst.Row(y)
		if !live[y] {
			clear(dr)
			continue
		}
		prodRow(dr, a.Row(y), b.Row(y))
	}
}

// prodRow sets dst[x] = a[x]·b[x].
func prodRow(dst, a, b []complex128) {
	for x := range dst {
		dst[x] = a[x] * b[x]
	}
}

// PrintResist thresholds an aerial image into a binary wafer image at
// the given dose: Z = 1 where dose·I > threshold.
func (s *Simulator) PrintResist(aerial *grid.Mat, dose float64) *grid.Mat {
	return aerial.Binarize(s.cfg.Threshold / dose)
}

// Wafer runs the full mask→wafer pipeline of Eq. (4) at full
// resolution: aerial image followed by the constant-threshold resist.
// The pooled aerial image goes back to the pool once it is printed.
func (s *Simulator) Wafer(mask *grid.Mat, cond Condition) *grid.Mat {
	aerial := s.Aerial(mask, cond)
	defer grid.PutMat(aerial)
	return s.PrintResist(aerial, cond.Dose)
}

// LossOpts configures LossGrad.
type LossOpts struct {
	// Stretch is the pixel stretch factor: 1 for full-resolution
	// masks whose size equals their area, s for coarse-grid masks
	// downsampled by s (Eq. 9).
	Stretch int
	// PVWeight, when positive, adds the process-window corners to the
	// loss: L = L2(nominal) + PVWeight·(L2(inner) + L2(outer)), the
	// standard robust-ILT objective.
	PVWeight float64
}

// LossGrad evaluates the sigmoid-resist L2 loss against target and its
// gradient with respect to the (continuous, full-range) mask pixels.
// mask and target must have the same square power-of-two shape.
//
// The returned gradient is drawn from the grid pool; callers that
// evaluate in a loop may hand it back with grid.PutMat once consumed
// to keep the optimisation steady state allocation-free (holding on to
// it is equally valid — ownership transfers to the caller).
func (s *Simulator) LossGrad(mask, target *grid.Mat, opts LossOpts) (float64, *grid.Mat) {
	e := evaluationPool.Get().(*evaluation)
	e.pair[0], e.pair[1] = mask, target
	e.run(s, e.pair[:1], e.pair[1:], opts)
	loss, grad := e.losses[0], e.grads[0]
	e.release()
	return loss, grad
}

// maskBand returns the half-width of the column band of F(mask) that one
// evaluation reads: the widest over its conditions (the nominal one,
// plus the process-window corners when pv is set).
func (s *Simulator) maskBand(size, kernelStretch int, pv bool) int {
	conds := []Condition{s.Nominal(), s.Inner(), s.Outer()}
	if !pv {
		conds = conds[:1]
	}
	band := 0
	for _, c := range conds {
		band = max(band, s.preparedFor(c.Focus, size, kernelStretch).maskBand())
	}
	return band
}

// evaluation is the state of one loss-gradient evaluation over T (mask,
// target) pairs of one geometry — LossGrad is the T = 1 case, and Aerial
// its forward half on one mask. It is pooled together with every
// per-call slice, and its step functions are bound once when it is
// created, so handing them to parallel.Do costs nothing per call: a warm
// LossGrad or Aerial allocates nothing.
type evaluation struct {
	s              *Simulator
	masks, targets []*grid.Mat
	pair           [2]*grid.Mat // LossGrad's mask and target, sliced into masks/targets
	size, band     int
	kernelStretch  int

	losses []float64
	grads  []*grid.Mat
	fms    []*grid.CMat // F(mask) per pair, shared by the conditions

	// The condition being evaluated and its per-pair intermediates.
	r        *reduced
	cond     Condition
	weight   float64
	addGrads bool         // add to the gradients an earlier condition wrote
	specs    []*grid.CMat // cropped mask spectra
	fields   []*grid.CMat // field i*k+j is pair i's kernel j
	gs       []*grid.Mat  // ∂L/∂I at full size, then low-passed on the M grid
	accs     []*grid.CMat // adjoint accumulators on the M grid

	// The resist sweep: full-size intensities in, per-pixel loss terms
	// out, and how far into each pair the sweep summed them itself.
	intens, terms []*grid.Mat
	sums          []float64
	summed        []int

	transformStep, cropStep, productStep, upsampleStep, lowpassStep, sourceStep, gradStep func(int)
	intensityStep, resistStep, reduceStep                                                 func(lo, hi int)
}

var evaluationPool = sync.Pool{New: func() any {
	e := &evaluation{}
	e.transformStep, e.cropStep, e.productStep = e.transform, e.crop, e.product
	e.intensityStep, e.upsampleStep = e.intensity, e.upsample
	e.resistStep, e.lowpassStep = e.resist, e.lowpass
	e.sourceStep, e.reduceStep, e.gradStep = e.source, e.reduce, e.addGrad
	return e
}}

// resize returns s with length n, reallocating only when it must; the
// contents are unspecified.
func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// begin binds the evaluation to s and a batch of same-sized masks, and
// draws their mask-spectrum buffers.
func (e *evaluation) begin(s *Simulator, masks []*grid.Mat, pixelStretch int) {
	T, size := len(masks), masks[0].H
	e.s, e.masks, e.size = s, masks, size
	e.kernelStretch = s.kernelStretch(size, pixelStretch)
	e.fms, e.specs, e.intens = resize(e.fms, T), resize(e.specs, T), resize(e.intens, T)
	for i := range e.fms {
		e.fms[i] = grid.GetCMat(size, size)
	}
}

// run evaluates the loss and gradient of every pair into e.losses and
// e.grads (pooled matrices whose ownership passes to the caller).
func (e *evaluation) run(s *Simulator, masks, targets []*grid.Mat, opts LossOpts) {
	if len(masks) != len(targets) {
		panic(fmt.Sprintf("litho: %d masks vs %d targets", len(masks), len(targets)))
	}
	size := masks[0].H
	if !fft.IsPow2(size) {
		panic(fmt.Sprintf("litho: mask size %d is not a power of two", size))
	}
	for i, m := range masks {
		if !m.SameShape(targets[i]) {
			panic(fmt.Sprintf("litho: mask %dx%d vs target %dx%d", m.H, m.W, targets[i].H, targets[i].W))
		}
		if m.H != size || m.W != size {
			panic(fmt.Sprintf("litho: batch member %d is %dx%d, want %dx%d", i, m.H, m.W, size, size))
		}
	}
	if opts.Stretch < 1 {
		panic("litho: LossOpts.Stretch must be >= 1")
	}
	T := len(masks)
	e.begin(s, masks, opts.Stretch)
	e.targets = targets
	e.band = s.maskBand(size, e.kernelStretch, opts.PVWeight > 0)
	e.losses, e.grads = resize(e.losses, T), resize(e.grads, T)
	e.gs, e.accs, e.terms = resize(e.gs, T), resize(e.accs, T), resize(e.terms, T)
	e.sums, e.summed = resize(e.sums, T), resize(e.summed, T)
	for i := range masks {
		e.losses[i] = 0
		e.grads[i] = grid.GetMat(size, size) // written by the nominal condition
	}
	parallel.Do(T, workersFor(T), e.transformStep)
	e.condition(s.Nominal(), 1)
	e.addGrads = true
	if opts.PVWeight > 0 {
		e.condition(s.Inner(), opts.PVWeight)
		e.condition(s.Outer(), opts.PVWeight)
	}
	grid.PutCMats(e.fms)
}

// release drops every reference the evaluation holds into its caller's
// data and returns it to the pool.
func (e *evaluation) release() {
	clear(e.grads)
	clear(e.pair[:])
	e.s, e.masks, e.targets, e.r, e.addGrads = nil, nil, nil, nil, false
	evaluationPool.Put(e)
}

// condition adds weight·L_cond to every pair's loss and weight·∇L_cond
// to its gradient, where L_cond = Σ (Z − Z_t)² with Z the sigmoid resist
// under the given condition.
//
// Derivation: with A_k = F⁻¹(H_k ⊙ F(M)) and I = Σ w_k|A_k|²,
// perturbing the real mask gives δI = Σ 2 w_k Re[conj(A_k)·(h_k ⊗ δM)],
// so with g = ∂L/∂I,
//
//	∇_M L = Σ_k 2 w_k Re[ F⁻¹( H_k(-f) ⊙ F(g ⊙ conj(A_k)) ) ],
//
// where H(-f) is the spectrum of the coordinate-reversed kernel (the
// correlation/adjoint kernel). The per-kernel terms are accumulated in
// the frequency domain so only one inverse transform per pair is needed.
//
// Everything per-kernel — the fields, |A_k|², g ⊙ conj(A_k) and the
// adjoint products — lives on the set's reduced M×M grid (see reduced);
// only the resist sweep against the target and the transforms entering
// and leaving it (cropMask, upsample, lowpass and the gradient's inverse)
// run at full size. When M equals the grid size the first three are the
// identity and this is the plain dense evaluation. Every transform whose
// output is real — the up-sampled intensity, the low-passed g, the
// gradient — is one fft.InverseRealBand straight into a real matrix.
//
// The k·T field buffers of the whole batch go through ONE batched
// transform (fft.Batch2D) in each direction, and the element-wise steps
// between them fan out over the same index space; below two parallel.Grain
// all of it runs inline on the caller. The two kernel reductions, a
// pair's intensity and its adjoint accumulator, fan out by rows of the
// whole batch — a lone tile's as much as a batch's — with every pixel
// summed in kernel order by the goroutine that owns its row; the scalar
// loss is summed in pixel order (see resist). Batching a transform never
// changes an individual matrix's bits either, so a pair's result does not
// depend on the worker count or on what else is in the batch.
func (e *evaluation) condition(cond Condition, weight float64) {
	r := e.s.preparedFor(cond.Focus, e.size, e.kernelStretch).solver()
	e.cond, e.weight = cond, weight

	// Forward pass: intensities, then per pair resist and loss.
	limit, tiles := e.forward(r)
	for i := range e.masks {
		e.gs[i] = grid.GetMat(e.size, e.size)    // ∂L/∂I, fully overwritten by the sweep
		e.terms[i] = grid.GetMat(e.size, e.size) // per-pixel loss terms, likewise
		e.sums[i], e.summed[i] = 0, 0
	}
	T, k := len(e.masks), len(r.freq)
	px := T * e.size * e.size
	parallel.DoChunks(px, parallel.Limit(px), e.resistStep)
	parallel.Do(T, tiles, e.lowpassStep)

	// Adjoint pass. The adjoint spectra are band-limited like the forward
	// ones, so every product adj ⊙ F(q) is zero outside r.adjLive: only
	// the live rows of F(q_k) are ever read, which lets the forward batch
	// run the band-limited columns-first transform and skip the row
	// transforms of every dead output row. Dead rows of the field buffers
	// are left mid-transform; that is safe because the reduction only
	// reads the rows of r.adjLive and prodLive rewrites (or clears) every
	// row on the next use of the pooled buffers.
	parallel.Do(k*T, limit, e.sourceStep)
	fft.Batch2DForwardBand(e.fields, r.adjLive, limit)
	for i := range e.masks {
		grid.PutMat(e.gs[i])
		e.gs[i] = nil
		e.accs[i] = grid.GetCMat(r.m, r.m) // every row overwritten by the reduction
	}
	parallel.DoChunks(T*r.m, limit, e.reduceStep)
	// The gradient's inverse is full-size again: it fans out on its own
	// above the fft crossover, like upsample's and lowpass's.
	parallel.Do(T, tiles, e.gradStep)
	grid.PutCMats(e.fields)
}

// forward forms every pair's fields under the set r on its M grid and
// leaves the pair's full-size intensity in e.intens. It returns the
// fan-out of the field steps and of the per-pair steps.
func (e *evaluation) forward(r *reduced) (limit, tiles int) {
	e.r = r
	T, k, m := len(e.masks), len(r.freq), r.m
	// One limit for the batched transforms and the element-wise steps
	// between them, so the two fan out together: what the fields' combined
	// element count is worth, at most one goroutine per field.
	limit = min(parallel.Limit(k*T*m*m), k*T)
	tiles = min(limit, T)
	kernelsEvaluated.Add(int64(k * T))
	e.fields = resize(e.fields, k*T)
	for f := range e.fields {
		e.fields[f] = grid.GetCMat(m, m)
	}
	parallel.Do(T, tiles, e.cropStep)
	parallel.Do(k*T, limit, e.productStep)
	fft.Batch2DInversePruned(e.fields, r.fwdLive, limit)
	for i := range e.masks {
		if e.specs[i] != e.fms[i] {
			grid.PutCMat(e.specs[i])
		}
		e.specs[i] = nil
		e.intens[i] = grid.GetMat(m, m) // every row overwritten by the sum
	}
	parallel.DoChunks(T*m, limit, e.intensityStep)
	parallel.Do(T, tiles, e.upsampleStep)
	return limit, tiles
}

// transform computes F(mask) of pair i. The mask is real: half a complex
// transform, and only the columns read.
func (e *evaluation) transform(i int) {
	fft.ForwardReal2DBand(e.fms[i], e.masks[i], e.band)
}

func (e *evaluation) crop(i int) { e.specs[i] = e.r.cropMask(e.fms[i]) }

// product builds the spectrum H_j ⊙ F(mask_i) of field f = i·k + j.
func (e *evaluation) product(f int) {
	k := len(e.r.freq)
	prodLive(e.fields[f], e.specs[f/k], e.r.freq[f%k], e.r.fwdLive)
}

// intensity sums rows [lo, hi) of the batch's intensities on the M grid,
// row y of pair i at index i·M + y, every pixel Σ w_j·|A_j|² in kernel
// order: the bits do not depend on how the rows are split.
func (e *evaluation) intensity(lo, hi int) {
	r, k, m := e.r, len(e.r.freq), e.r.m
	for row := lo; row < hi; row++ {
		i, y := row/m, row%m
		out := e.intens[i].Row(y)
		clear(out)
		for j, a := range e.fields[i*k : (i+1)*k] {
			addIntensity(out, a.Row(y), r.weights[j])
		}
	}
}

// addIntensity adds w·|a[x]|² to out[x].
func addIntensity(out []float64, a []complex128, w float64) {
	x := 0
	if useAVX2 {
		x = len(out) &^ 3
		intensityAVX2(out[:x], a[:x], w)
	}
	for ; x < len(out); x++ {
		re, im := real(a[x]), imag(a[x])
		out[x] += w * (re*re + im*im)
	}
}

// upsample interpolates pair i's intensity onto the full grid.
func (e *evaluation) upsample(i int) { e.intens[i] = e.r.upsample(e.intens[i]) }

// resist sweeps the sigmoid resist over pixels [lo, hi) of the batch,
// pixel p of pair i at index i·size² + p: it writes ∂L/∂I into gs[i] and
// the loss term (Z − Z_t)² into terms[i]. Every pixel is its own, so the
// sweep splits anywhere; the scalar loss is not — it is the terms added
// in pixel order. The chunk that starts a pair keeps the sum of its run,
// which is the head of that order; lowpass adds the rest from terms.
func (e *evaluation) resist(lo, hi int) {
	steep, th, dose := e.s.cfg.SigmoidSteep, e.s.cfg.Threshold, e.cond.Dose
	n := e.size * e.size
	for lo < hi {
		i, p0 := lo/n, lo%n
		p1 := min(n, p0+hi-lo)
		lo += p1 - p0
		terms := e.terms[i].Data[p0:p1]
		resistSweep(e.gs[i].Data[p0:p1], terms, e.intens[i].Data[p0:p1], e.targets[i].Data[p0:p1], steep, dose, th)
		if p0 == 0 {
			sum := 0.0
			for _, t := range terms {
				sum += t
			}
			e.sums[i], e.summed[i] = sum, p1
		}
	}
}

// resistSweep writes, for every intensity v, the loss term (Z − Z_t)²
// into terms and ∂L/∂I into g, Z = σ(steep·(dose·v − th)).
func resistSweep(g, terms, in, tg []float64, steep, dose, th float64) {
	j := 0
	if useAVX2 {
		j = len(in) &^ 3
		resistAVX2(g[:j], terms[:j], in[:j], tg[:j], steep, dose, th)
	}
	for ; j < len(in); j++ {
		z := Sigmoid(steep * (dose*in[j] - th))
		d := z - tg[j]
		terms[j] = d * d
		g[j] = 2 * d * steep * dose * z * (1 - z)
	}
}

// lowpass finishes pair i's loss in pixel order and leaves the
// low-passed ∂L/∂I in gs[i].
func (e *evaluation) lowpass(i int) {
	sum := e.sums[i]
	for _, t := range e.terms[i].Data[e.summed[i]:] {
		sum += t
	}
	e.losses[i] += e.weight * sum
	grid.PutMat(e.intens[i])
	grid.PutMat(e.terms[i])
	e.intens[i], e.terms[i] = nil, nil
	e.gs[i] = e.r.lowpass(e.gs[i])
}

// source overwrites field f with the adjoint source q = g ⊙ conj(A): the
// field is not needed once q is formed.
func (e *evaluation) source(f int) { mulRealConj(e.fields[f], e.gs[f/len(e.r.freq)]) }

// reduce accumulates rows [lo, hi) of the batch's adjoint accumulators on
// the M grid, row y of pair i at index i·M + y: every entry is the sum of
// the kernel contributions (2w_j·H_j(-f)) ⊙ F(q_j) in kernel order — the
// flipped spectra carry the 2w_j factor from preparation — and zero on
// the rows outside the adjoint support.
func (e *evaluation) reduce(lo, hi int) {
	r, k, m := e.r, len(e.r.freq), e.r.m
	for row := lo; row < hi; row++ {
		i, y := row/m, row%m
		cr := e.accs[i].Row(y)
		clear(cr)
		if !r.adjLive[y] {
			continue
		}
		for j, a := range e.fields[i*k : (i+1)*k] {
			prodAddRow(cr, r.adj[j].Row(y), a.Row(y))
		}
	}
}

// prodAddRow adds a[x]·b[x] to acc[x].
func prodAddRow(acc, a, b []complex128) {
	for x := range acc {
		acc[x] += a[x] * b[x]
	}
}

// addGrad inverts pair i's ±B accumulator onto the full grid, real part
// only, weighted: into its gradient under the first condition, added to
// it under the others.
func (e *evaluation) addGrad(i int) {
	grad, acc := e.grads[i], e.accs[i]
	if !e.addGrads {
		fft.InverseRealBand(grad, acc, e.r.b, e.weight)
	} else {
		term := grid.GetMat(e.size, e.size)
		fft.InverseRealBand(term, acc, e.r.b, e.weight)
		addInto(grad.Data, term.Data)
		grid.PutMat(term)
	}
	grid.PutCMat(acc)
	e.accs[i] = nil
}

// The three steps below carry one matrix between the full grid and the
// reduced grid. Each consumes its pooled argument and returns a pooled
// replacement; at M == size each returns its argument untouched.

// cropMask returns the ±B block of the mask spectrum on the M grid.
// Unlike the other two it leaves fm alone (the conditions share it):
// the caller returns the crop to the pool when it differs from fm.
func (r *reduced) cropMask(fm *grid.CMat) *grid.CMat {
	if r.m == r.size {
		return fm
	}
	spec := grid.GetCMat(r.m, r.m).Zero()
	copyBand(spec, r.band1M, fm, r.band1)
	return spec
}

// upsample interpolates the M-grid intensity onto the full grid. The
// intensity is band-limited to ±2B < M/2, so Fourier interpolation —
// real forward transform at M, real-output inverse of its ±2B band at
// full size — is exact. (size/M)² restores the normalisation of the
// larger inverse transform.
func (r *reduced) upsample(intensity *grid.Mat) *grid.Mat {
	if r.m == r.size {
		return intensity
	}
	spec := fft.ForwardReal2DBand(grid.GetCMat(r.m, r.m), intensity, 2*r.b)
	grid.PutMat(intensity)
	up := grid.GetMat(r.size, r.size)
	fft.InverseRealBand(up, spec, 2*r.b, float64(r.size*r.size)/float64(r.m*r.m))
	grid.PutCMat(spec)
	return up
}

// lowpass returns the ±2B low-pass of g sampled on the M grid, times
// (size/M)²: the band is inverted at M without rescaling, the factor the
// unscaled adjoint spectra expect (see reduced).
func (r *reduced) lowpass(g *grid.Mat) *grid.Mat {
	if r.m == r.size {
		return g
	}
	spec := fft.ForwardReal2DBand(grid.GetCMat(r.size, r.size), g, 2*r.b)
	grid.PutMat(g)
	low := grid.GetMat(r.m, r.m)
	fft.InverseRealBand(low, spec, 2*r.b, 1)
	grid.PutCMat(spec)
	return low
}

// mulRealConj sets a = g ⊙ conj(a) element-wise for real g — the
// adjoint source term q_k = g ⊙ conj(A_k) built in place over the
// field buffer. Written as two real multiplies per element instead of
// a full complex product against complex(g, 0).
func mulRealConj(a *grid.CMat, g *grid.Mat) {
	ad, gd, j := a.Data, g.Data, 0
	if useAVX2 {
		j = len(ad) &^ 1
		mulRealConjAVX2(ad[:j], gd[:j])
	}
	for ; j < len(ad); j++ {
		av, gv := ad[j], gd[j]
		ad[j] = complex(gv*real(av), -(gv * imag(av)))
	}
}

// addInto adds src[j] to dst[j].
func addInto(dst, src []float64) {
	for j := range dst {
		dst[j] += src[j]
	}
}
