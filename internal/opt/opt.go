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
package opt

import (
	"context"
	"fmt"
	"math"

	"mgsilt/internal/grid"
	"mgsilt/internal/litho"
)

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
}

// NewAdam returns an Adam optimiser with the customary defaults.
func NewAdam(n int) *Adam {
	return &Adam{
		Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make([]float64, n), v: make([]float64, n),
	}
}

// tick starts the next update: it advances the step count the bias
// corrections are computed from.
func (a *Adam) tick() { a.t++ }

// stepRange applies the bias-corrected update tick started,
// params -= lr·m̂/(√v̂+ε), to parameters [lo, hi). Every parameter has
// its own moments, so ranges can be stepped in any order, or at once,
// with the same result.
func (a *Adam) stepRange(params, gradient []float64, lr float64, lo, hi int) {
	if len(params) != len(a.m) || len(gradient) != len(a.m) {
		panic(fmt.Sprintf("opt: Adam size mismatch: %d params, %d grads, state %d", len(params), len(gradient), len(a.m)))
	}
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	m, v, params := a.m[lo:hi], a.v[lo:hi], params[lo:hi]
	for i, g := range gradient[lo:hi] {
		m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
		v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
		params[i] -= lr * (m[i] / c1) / (math.Sqrt(v[i]/c2) + a.Eps)
	}
}

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

// sharedLossGrad evaluates the litho objective for a solver.
func sharedLossGrad(sim *litho.Simulator, mask, target *grid.Mat, p Params) (float64, *grid.Mat) {
	return sim.LossGrad(mask, target, litho.LossOpts{Stretch: p.Stretch, PVWeight: p.PVWeight})
}
