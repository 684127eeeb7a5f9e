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
package litho

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"mgsilt/internal/fault"
	"mgsilt/internal/fft"
	"mgsilt/internal/grid"
	"mgsilt/internal/kernels"
	"mgsilt/internal/parallel"
)

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
// M − 3B > B. Both conditions are M > 4B; M is the smallest power of two
// satisfying it, or the grid size itself when that is no smaller (the
// Eq. 9 coarse grids at stretch ≥ 2) — then nothing is cropped and the
// evaluation is the plain dense one.
//
// B is measured at the bit level from the resampled spectra, like the
// row-support masks, so nothing here depends on how the kernels were
// generated. The full-size spectra it is measured on are a transient of
// Simulator.preparedFor: below M == size only their ±B blocks are kept.
//
// The row-support masks drive the pruned transforms: the spectra are
// band-limited, so in corner layout only the rows intersecting the
// (shifted) pupil disk are ever non-zero. A row is dead only when every
// entry is exactly +0, which is what fft.Inverse2DPruned's exactness
// contract requires.
type reduced struct {
	size, m int
	b       int // band half-width B of the spectra

	// Crop/embed index maps between the two grids, nil when M == size:
	// entry i of band1 (band2) is the corner-layout index of the i-th
	// frequency of the ±B (±2B) band on the full grid, and of band1M
	// (band2M) on the M grid.
	band1, band1M []int
	band2, band2M []int
	rows2         []bool // full-grid rows of the ±2B band: the up-sampling inverse
	rows2M        []bool // M-grid rows of the ±2B band: the low-pass inverse of g

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
	// and the full-size forward DFT of the adjoint source. Every factor is
	// a power of two, so folding them costs no rounding.
	adjOnce sync.Once
	adj     []*grid.CMat
	adjLive []bool // union row support of adj
	adjRows []int  // indices of the true entries of adjLive
	rows1   []bool // full-grid rows of adjLive: the final inverse
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
// combination, preparing it on first use. The full-size resampled
// spectra live only as long as it takes to measure their band and crop
// it, unless the set runs on the full grid.
func (s *Simulator) preparedFor(focus Focus, size, stretch int) *reduced {
	key := prepKey{focus, size, stretch}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.cache[key]; ok {
		return r
	}
	rs := s.folded[focus].Resampled(size, stretch)
	freq := make([]*grid.CMat, len(rs.Kernels))
	weights := make([]float64, len(rs.Kernels))
	for i, k := range rs.Kernels {
		// Resampled kernels are freshly allocated, so the layout swap
		// can run in place instead of copying.
		freq[i], weights[i] = fft.SwapQuadrants(k.Freq), k.Weight
	}
	r := newReduced(freq, weights, s.forceDense)
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
		// carries the (M/size)² forward factor; scaling it by
		// 2·w_k·(size/M)² in one product gives the bits of 2·w_k times
		// the unscaled crop, because the two powers of two cancel exactly.
		unscale := float64(r.size*r.size) / float64(r.m*r.m)
		for i, h := range r.freq {
			r.adj = append(r.adj, fft.FlipFreq(h).Scale(complex(2*r.weights[i]*unscale, 0)))
		}
		r.adjLive = unionRowSupport(r.adj)
		for y, live := range r.adjLive {
			if live {
				r.adjRows = append(r.adjRows, y)
			}
		}
		r.rows1 = r.adjLive
		if r.m != r.size {
			r.rows1 = make([]bool, r.size)
			for i, y := range r.band1M {
				r.rows1[r.band1[i]] = r.adjLive[y]
			}
		}
	})
	return r
}

// bandHalfWidth returns B, the largest per-axis frequency magnitude at
// which any of the corner-layout spectra holds a non-(+0) entry.
func bandHalfWidth(ms []*grid.CMat) int {
	b := 0
	for _, m := range ms {
		for y := 0; y < m.H; y++ {
			fy := min(y, m.H-y)
			for x, v := range m.Row(y) {
				if f := max(fy, min(x, m.W-x)); f > b && !isPosZero(v) {
					b = f
				}
			}
		}
	}
	return b
}

// reducedSide returns M for a band half-width b on a size-point grid:
// the smallest power of two above 4b, or size when that is no smaller.
func reducedSide(b, size int) int {
	m := 1
	for m <= 4*b {
		m <<= 1
	}
	return min(m, size)
}

// newReduced prepares a full set from its full-size corner-layout
// spectra; dense keeps it on the full grid.
func newReduced(freq []*grid.CMat, weights []float64, dense bool) *reduced {
	size := freq[0].H
	b := bandHalfWidth(freq)
	r := &reduced{size: size, m: size, b: b, weights: weights, freq: freq}
	if !dense {
		r.m = reducedSide(b, size)
	}
	if m := r.m; m != size {
		r.band1, r.band1M = bandIndex(b, size), bandIndex(b, m)
		r.band2, r.band2M = bandIndex(2*b, size), bandIndex(2*b, m)
		r.rows2, r.rows2M = rowMask(r.band2, size), rowMask(r.band2M, m)
		scale := complex(float64(m*m)/float64(size*size), 0)
		r.freq = make([]*grid.CMat, len(freq))
		for i, h := range freq {
			r.freq[i] = grid.NewCMat(m, m)
			copyBand(r.freq[i], r.band1M, h, r.band1, 1)
			r.freq[i].Scale(scale)
		}
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

// rowMask marks the listed rows of an n-row grid.
func rowMask(rows []int, n int) []bool {
	mask := make([]bool, n)
	for _, y := range rows {
		mask[y] = true
	}
	return mask
}

// copyBand moves one frequency band between grids: entry (dstIdx[i],
// dstIdx[j]) of dst becomes scale times entry (srcIdx[i], srcIdx[j]) of
// src. Entries of dst outside the band are left alone.
func copyBand(dst *grid.CMat, dstIdx []int, src *grid.CMat, srcIdx []int, scale float64) {
	for i, sy := range srcIdx {
		sr, dr := src.Row(sy), dst.Row(dstIdx[i])
		for j, sx := range srcIdx {
			v := sr[sx]
			dr[dstIdx[j]] = complex(scale*real(v), scale*imag(v))
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

// aerialCalls sequences aerial evaluations for the litho.aerial fault
// site. The key is a call-sequence number, so under a process-global
// injector this site is deterministic for serial runs but only
// statistically reproducible for concurrent ones (evaluation order
// depends on scheduling); schedule-exact chaos tests should inject at
// the device sites instead.
var aerialCalls atomic.Int64

// injectAerial is the litho.aerial chaos site, shared by every entry
// point that evaluates the Hopkins sum (plain aerial images and the
// LossGrad solver path). The litho API is pure (no error returns), so
// an injected failure is thrown as a fault.Panic; callers running
// inside a device job have it recovered and retried at the job
// boundary, and the core flows convert panics escaping their own
// metric evaluations into ordinary errors. Injected latency is
// meaningless here (there is no timeline to charge) and ignored.
func injectAerial() {
	if !fault.Enabled() {
		return
	}
	if f := fault.At(fault.SiteLithoAerial, fault.Key{Unit: aerialCalls.Add(1)}); f.Err != nil {
		panic(fault.Panic{Err: f.Err})
	}
}

// aerial is the forward half of the evaluation on one mask: F(mask)
// cropped to the set's band, the fields and their intensity on its M
// grid, the intensity up-sampled to the mask's grid.
func (s *Simulator) aerial(mask *grid.Mat, pixelStretch int, focus Focus) *grid.Mat {
	injectAerial()
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
		ar, br := a.Row(y), b.Row(y)
		for x, av := range ar {
			dr[x] = av * br[x]
		}
	}
}

// PrintResist thresholds an aerial image into a binary wafer image at
// the given dose: Z = 1 where dose·I > threshold.
func (s *Simulator) PrintResist(aerial *grid.Mat, dose float64) *grid.Mat {
	return aerial.Binarize(s.cfg.Threshold / dose)
}

// Wafer runs the full mask→wafer pipeline of Eq. (4) at full
// resolution: aerial image followed by the constant-threshold resist.
func (s *Simulator) Wafer(mask *grid.Mat, cond Condition) *grid.Mat {
	return s.PrintResist(s.Aerial(mask, cond), cond.Dose)
}

func sigmoid(x float64) float64 {
	// Guard both tails to keep exp from overflowing.
	switch {
	case x > 40:
		return 1
	case x < -40:
		return 0
	}
	return 1 / (1 + math.Exp(-x))
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
	r      *reduced
	cond   Condition
	weight float64
	specs  []*grid.CMat // cropped mask spectra
	fields []*grid.CMat // field i*k+j is pair i's kernel j
	gs     []*grid.Mat  // ∂L/∂I at full size, then low-passed on the M grid
	accs   []*grid.CMat // adjoint accumulators

	// The resist sweep: full-size intensities in, per-pixel loss terms
	// out, and how far into each pair the sweep summed them itself.
	intens, terms []*grid.Mat
	sums          []float64
	summed        []int

	transformStep, cropStep, productStep, intensityStep, lowpassStep, sourceStep, reduceStep, gradStep func(int)
	resistStep                                                                                         func(lo, hi int)
}

var evaluationPool = sync.Pool{New: func() any {
	e := &evaluation{}
	e.transformStep, e.cropStep, e.productStep = e.transform, e.crop, e.product
	e.intensityStep, e.resistStep, e.lowpassStep = e.intensity, e.resist, e.lowpass
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
	for i, m := range masks {
		if !m.SameShape(targets[i]) {
			panic(fmt.Sprintf("litho: mask %dx%d vs target %dx%d", m.H, m.W, targets[i].H, targets[i].W))
		}
		if m.H != size || m.W != size {
			panic(fmt.Sprintf("litho: batch member %d is %dx%d, want %dx%d", i, m.H, m.W, size, size))
		}
	}
	injectAerial()
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
		e.grads[i] = grid.GetMat(size, size).Zero()
	}
	parallel.Do(T, workersFor(T), e.transformStep)
	e.condition(s.Nominal(), 1)
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
	e.s, e.masks, e.targets, e.r = nil, nil, nil, nil
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
// and leaving it (cropMask, upsample, lowpass, embed) run at full size.
// When M equals the grid size those four are the identity and this is
// the plain dense evaluation.
//
// The k·T field buffers of the whole batch go through ONE batched
// transform (fft.Batch2D) in each direction, and the element-wise steps
// between them fan out over the same index space; below two parallel.Grain
// all of it runs inline on the caller. Every order-sensitive reduction —
// a pair's intensity, its scalar loss, its adjoint accumulator — is
// performed by one goroutine in kernel order, and batching a transform
// never changes an individual matrix's bits, so a pair's result does not
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
	// touches r.adjRows and prodLive rewrites (or clears) every row on
	// the next use of the pooled buffers.
	parallel.Do(k*T, limit, e.sourceStep)
	fft.Batch2DForwardBand(e.fields, r.adjLive, limit)
	parallel.Do(T, tiles, e.reduceStep)
	// The accumulators are full-size again: their transform fans out on
	// its own above the fft crossover, like upsample's and lowpass's.
	fft.Batch2DInversePruned(e.accs, r.rows1, 0)
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
	parallel.Do(T, tiles, e.intensityStep)
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

// intensity sums pair i's intensity in kernel order and interpolates it
// onto the full grid.
func (e *evaluation) intensity(i int) {
	r, k := e.r, len(e.r.freq)
	if e.specs[i] != e.fms[i] {
		grid.PutCMat(e.specs[i])
	}
	e.specs[i] = nil
	intensity := grid.GetMat(r.m, r.m).Zero()
	for j, a := range e.fields[i*k : (i+1)*k] {
		a.AddAbsSqScaled(intensity, r.weights[j])
	}
	e.intens[i] = r.upsample(intensity)
}

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
		in, tg := e.intens[i].Data[p0:p1], e.targets[i].Data[p0:p1]
		g, terms := e.gs[i].Data[p0:p1], e.terms[i].Data[p0:p1]
		sum := 0.0
		for j, v := range in {
			z := sigmoid(steep * (dose*v - th))
			d := z - tg[j]
			// The conversion rounds the product on its own, so that adding
			// it here and adding the stored term later give the same bits
			// on hardware that would otherwise fuse the two.
			t := float64(d * d)
			sum += t
			terms[j] = t
			g[j] = 2 * d * steep * dose * z * (1 - z)
		}
		if p0 == 0 {
			e.sums[i], e.summed[i] = sum, p1
		}
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

// reduce accumulates pair i's kernel contributions (2w_j·H_j(-f)) ⊙ F(q_j)
// in kernel order — the flipped spectra carry the 2w_j factor from
// preparation — and embeds the sum into a full-size spectrum.
func (e *evaluation) reduce(i int) {
	r, k := e.r, len(e.r.freq)
	grid.PutMat(e.gs[i])
	e.gs[i] = nil
	acc := grid.GetCMat(r.m, r.m).Zero()
	for j, a := range e.fields[i*k : (i+1)*k] {
		mulAddRows(acc, r.adj[j], a, r.adjRows)
	}
	e.accs[i] = r.embed(acc)
}

// addGrad adds the weighted real part of pair i's inverted accumulator
// to its gradient.
func (e *evaluation) addGrad(i int) {
	grad, acc := e.grads[i], e.accs[i]
	for j := range grad.Data {
		grad.Data[j] += e.weight * real(acc.Data[j])
	}
	grid.PutCMat(acc)
	e.accs[i] = nil
}

// mulAddRows accumulates adj ⊙ a into acc on the listed rows.
func mulAddRows(acc, adj, a *grid.CMat, rows []int) {
	for _, y := range rows {
		ar, jr, cr := a.Row(y), adj.Row(y), acc.Row(y)
		for x, qv := range ar {
			cr[x] += jr[x] * qv
		}
	}
}

// The four steps below carry one matrix between the full grid and the
// reduced grid. Each consumes its pooled argument and returns a pooled
// replacement; at M == size each returns its argument untouched.

// cropMask returns the ±B block of the mask spectrum on the M grid.
// Unlike the other three it leaves fm alone (the conditions share it):
// the caller returns the crop to the pool when it differs from fm.
func (r *reduced) cropMask(fm *grid.CMat) *grid.CMat {
	if r.m == r.size {
		return fm
	}
	spec := grid.GetCMat(r.m, r.m).Zero()
	copyBand(spec, r.band1M, fm, r.band1, 1)
	return spec
}

// upsample interpolates the M-grid intensity onto the full grid. The
// intensity is band-limited to ±2B < M/2, so Fourier interpolation —
// real forward transform at M, zero-padding of the ±2B band into a
// full-size spectrum, pruned inverse — is exact. (size/M)² restores the
// normalisation of the larger inverse transform.
func (r *reduced) upsample(intensity *grid.Mat) *grid.Mat {
	if r.m == r.size {
		return intensity
	}
	spec := fft.ForwardReal2DBand(grid.GetCMat(r.m, r.m), intensity, 2*r.b)
	grid.PutMat(intensity)
	up := grid.GetCMat(r.size, r.size).Zero()
	copyBand(up, r.band2, spec, r.band2M, float64(r.size*r.size)/float64(r.m*r.m))
	grid.PutCMat(spec)
	fft.Inverse2DPruned(up, r.rows2)
	return realPart(up)
}

// lowpass returns the ±2B low-pass of g sampled on the M grid, times
// (size/M)²: the cropped spectrum is inverted at M without rescaling,
// the factor the unscaled adjoint spectra expect (see reduced).
func (r *reduced) lowpass(g *grid.Mat) *grid.Mat {
	if r.m == r.size {
		return g
	}
	spec := fft.ForwardReal2DBand(grid.GetCMat(r.size, r.size), g, 2*r.b)
	grid.PutMat(g)
	low := grid.GetCMat(r.m, r.m).Zero()
	copyBand(low, r.band2M, spec, r.band2, 1)
	grid.PutCMat(spec)
	fft.Inverse2DPruned(low, r.rows2M)
	return realPart(low)
}

// embed zero-pads the ±B adjoint accumulator into a full-size spectrum.
func (r *reduced) embed(acc *grid.CMat) *grid.CMat {
	if r.m == r.size {
		return acc
	}
	out := grid.GetCMat(r.size, r.size).Zero()
	copyBand(out, r.band1, acc, r.band1M, 1)
	grid.PutCMat(acc)
	return out
}

// realPart moves the real part of c into a pooled matrix and returns c
// to its pool.
func realPart(c *grid.CMat) *grid.Mat {
	out := grid.GetMat(c.H, c.W)
	for i, v := range c.Data {
		out.Data[i] = real(v)
	}
	grid.PutCMat(c)
	return out
}

// mulRealConj sets a = g ⊙ conj(a) element-wise for real g — the
// adjoint source term q_k = g ⊙ conj(A_k) built in place over the
// field buffer. Written as two real multiplies per element instead of
// a full complex product against complex(g, 0).
func mulRealConj(a *grid.CMat, g *grid.Mat) {
	gd := g.Data
	for j, av := range a.Data {
		gv := gd[j]
		a.Data[j] = complex(gv*real(av), -(gv * imag(av)))
	}
}
