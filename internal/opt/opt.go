// Package opt provides the single-tile ILT solvers φ(·) plugged into
// the frameworks of internal/core:
//
//   - Pixel: sigmoid-parameterised pixel-based ILT with Adam — the
//     work-horse solver used inside the multigrid-Schwarz flow. Its
//     descent loop runs T tiles in lockstep (Pixel.descend); Solve is
//     the batch of one, SolveBatch the batch of T.
//   - LevelSet: a level-set mask evolution reproducing the behaviour
//     of "GLS-ILT" [3] (clean contours, no SRAF nucleation).
//   - MultiLevel: a coarse-to-fine litho-resolution schedule
//     reproducing "Multi-level-ILT" [4] (best quality, most SRAFs).
//
// All solvers consume and produce continuous masks in [0,1]; callers
// binarise at 0.5 for inspection.
//
// On amd64 with AVX2 the Pixel solver's per-pixel sweeps — the descent
// step and the θ initialisation — run as assembly twins
// (sweeps_amd64.s) with the IEEE operations of their Go code in
// order, and its mask sweep is litho's vector sigmoid: the choice moves
// no bit. The Go loops are the reference, finish what a twin leaves of a
// range, and are every other CPU's path.
package opt

import (
	"context"
	"fmt"
	"math"

	"mgsilt/internal/cpu"
	"mgsilt/internal/grid"
	"mgsilt/internal/litho"
)

// useAVX2 routes the per-pixel sweeps to their AVX2 twins in
// sweeps_amd64.s, decided once from CPUID; the tests clear it to run the
// Go loops.
var useAVX2 = cpu.HasAVX2()

// Params are the per-call knobs of a Solve invocation.
type Params struct {
	// Ctx, when non-nil, is polled between iterations: the solver
	// returns Ctx.Err() as soon as the context is cancelled or past
	// its deadline, so a cancelled job stops mid-iteration-budget
	// instead of running to completion. nil means never interrupted.
	Ctx context.Context
	// Iters is the number of optimisation iterations.
	Iters int
	// LR is the learning rate (solver-specific scale).
	LR float64
	// Stretch is the litho pixel-stretch factor: 1 for full
	// resolution, s for coarse-grid masks downsampled by s (Eq. 9).
	Stretch int
	// PVWeight adds process-window corners to the objective.
	PVWeight float64
	// Freeze, when non-nil, marks pixels (value ≥ 0.5) that must keep
	// their initial values during the solve — the Dirichlet boundary
	// condition of the modified Schwarz method (Eq. 11): margin pixels
	// hold the adjacent tiles' data so the subdomain solve cannot
	// contradict its neighbours. Must match the mask shape.
	Freeze *grid.Mat
}

// Interrupted returns the context's error when Params carries a
// cancelled or expired context, and nil otherwise. Solvers poll it
// once per iteration.
func (p Params) Interrupted() error {
	if p.Ctx == nil {
		return nil
	}
	return p.Ctx.Err()
}

// maskFrozen zeroes the gradient entries [lo, hi) at frozen pixels.
func maskFrozen(gradient []float64, freeze *grid.Mat, lo, hi int) {
	if freeze == nil {
		return
	}
	for i := lo; i < hi; i++ {
		if freeze.Data[i] >= 0.5 {
			gradient[i] = 0
		}
	}
}

// restoreFrozen copies the initial values back into frozen pixels,
// guaranteeing the Dirichlet data survives parameterisation round
// trips (e.g. the sigmoid/logit clamp at the poles).
func restoreFrozen(out, init, freeze *grid.Mat) {
	if freeze == nil {
		return
	}
	for i, f := range freeze.Data {
		if f >= 0.5 {
			out.Data[i] = init.Data[i]
		}
	}
}

func (p Params) validate() error {
	if p.Iters < 0 {
		return fmt.Errorf("opt: negative iteration count %d", p.Iters)
	}
	if p.LR <= 0 {
		return fmt.Errorf("opt: learning rate %v must be positive", p.LR)
	}
	if p.Stretch < 1 {
		return fmt.Errorf("opt: stretch %d must be >= 1", p.Stretch)
	}
	if p.PVWeight < 0 {
		return fmt.Errorf("opt: negative PV weight %v", p.PVWeight)
	}
	return nil
}

func (p Params) validateFor(mask *grid.Mat) error {
	if err := p.validate(); err != nil {
		return err
	}
	if p.Freeze != nil && !p.Freeze.SameShape(mask) {
		return fmt.Errorf("opt: freeze mask %dx%d does not match %dx%d", p.Freeze.H, p.Freeze.W, mask.H, mask.W)
	}
	return nil
}

// Solver is the single-tile ILT solver interface φ(·) of Algorithm 1.
type Solver interface {
	// Solve optimises a continuous mask toward printing target,
	// starting from init (not mutated). target and init must share a
	// square power-of-two shape compatible with the solver's
	// simulator.
	Solve(target, init *grid.Mat, p Params) (*grid.Mat, error)
	// Name identifies the solver in reports.
	Name() string
}

// Adam is a standard Adam optimiser over a flat parameter vector.
type Adam struct {
	Beta1, Beta2, Eps float64
	m, v              []float64
	t                 int
	// moments are the pooled matrices m and v live in.
	moments [2]*grid.Mat
}

// NewAdam returns an Adam optimiser over n ≥ 1 parameters with the
// customary defaults. Its moments are drawn from the grid pool and
// zeroed; release hands them back.
func NewAdam(n int) *Adam {
	a := &Adam{Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	for i := range a.moments {
		a.moments[i] = grid.GetMat(1, n)
		clear(a.moments[i].Data)
	}
	a.m, a.v = a.moments[0].Data, a.moments[1].Data
	return a
}

// release returns the moments to the grid pool; a is unusable after.
func (a *Adam) release() {
	grid.PutMats(a.moments[:])
	a.m, a.v = nil, nil
}

// tick starts the next update: it advances the step count the bias
// corrections are computed from.
func (a *Adam) tick() { a.t++ }

// check panics unless params and gradient have the optimiser's size.
func (a *Adam) check(params, gradient []float64) {
	if len(params) != len(a.m) || len(gradient) != len(a.m) {
		panic(fmt.Sprintf("opt: Adam size mismatch: %d params, %d grads, state %d", len(params), len(gradient), len(a.m)))
	}
}

// corrections returns the bias corrections 1 − β1^t and 1 − β2^t of the
// update tick started.
func (a *Adam) corrections() (c1, c2 float64) {
	return 1 - math.Pow(a.Beta1, float64(a.t)), 1 - math.Pow(a.Beta2, float64(a.t))
}

// stepRange applies the bias-corrected update tick started,
// params -= lr·m̂/(√v̂+ε), to parameters [lo, hi). Every parameter has
// its own moments, so ranges can be stepped in any order, or at once,
// with the same result.
func (a *Adam) stepRange(params, gradient []float64, lr float64, lo, hi int) {
	a.check(params, gradient)
	c1, c2 := a.corrections()
	m, v, params := a.m[lo:hi], a.v[lo:hi], params[lo:hi]
	for i, g := range gradient[lo:hi] {
		m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
		v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
		params[i] -= lr * (m[i] / c1) / (math.Sqrt(v[i]/c2) + a.Eps)
	}
}

// logitClamp is how far from the poles logit clamps its argument.
const logitClamp = 1e-4

// logit is the inverse sigmoid, clamped away from the poles.
func logit(x, lo float64) float64 {
	if x < lo {
		x = lo
	}
	if x > 1-lo {
		x = 1 - lo
	}
	return math.Log(x / (1 - x))
}

// logits sets x[j] = logit(x[j], logitClamp)/slope: the Pixel solver's
// θ for a mask level.
func logits(x []float64, slope float64) {
	j := 0
	if useAVX2 {
		j = len(x) &^ 3
		lo := float64(logitClamp)
		logitsAVX2(x[:j], lo, 1-lo, slope) // 1−lo rounded as logit rounds it
	}
	for ; j < len(x); j++ {
		x[j] = logit(x[j], logitClamp) / slope
	}
}

// vec4 is one float64 constant in the four lanes of a vector register,
// the memory operand the twins of sweeps_amd64.s read it from.
type vec4 [4]float64

func splat(v float64) vec4 { return vec4{v, v, v, v} }

// splatBits is splat of the float64 with the given bits.
func splatBits(b uint64) vec4 { return splat(math.Float64frombits(b)) }

// logK holds the constants of logitsAVX2, in the order of its K_
// offsets: 1, 2, 0.5, then those of math.Log's amd64 assembly (√2/2,
// L1…L7, Ln2Hi, Ln2Lo) as its source spells them, then the mantissa and
// exponent masks, the exponent bias and the 1.5·2^52 that converts an
// integer lane to float64.
var logK = [...]vec4{
	splat(1), splat(2), splat(0.5),
	splat(7.07106781186547524401e-01),
	splat(6.666666666666735130e-01), splat(3.999999999940941908e-01),
	splat(2.857142874366239149e-01), splat(2.222219843214978396e-01),
	splat(1.818357216161805012e-01), splat(1.531383769920937332e-01),
	splat(1.479819860511658591e-01),
	splat(6.93147180369123816490e-01), splat(1.90821492927058770002e-10),
	splatBits(1<<52 - 1), splatBits(0x7ff), splatBits(0x3fe), splat(0x1.8p52),
}

// sharedLossGrad evaluates the litho objective for a solver.
func sharedLossGrad(sim *litho.Simulator, mask, target *grid.Mat, p Params) (float64, *grid.Mat) {
	return sim.LossGrad(mask, target, litho.LossOpts{Stretch: p.Stretch, PVWeight: p.PVWeight})
}
