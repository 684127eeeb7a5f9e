package opt

import (
	"fmt"

	"mgsilt/internal/grid"
)

// Fingerprinter is implemented by solvers whose configuration can be
// serialised into a stable content string. The fingerprint covers
// every solver knob that changes solve outputs — not the simulator,
// whose physics is fingerprinted separately (litho.Simulator
// .Fingerprint) — and feeds the tile-result cache key: equal
// fingerprints plus equal optics plus equal tile inputs imply
// bit-equal results. Solvers that do not implement it are simply not
// cached or batched. Fingerprints are prefixed with the backend's
// registry name, so cache keys and the scheduler's compatibility
// classes carry solver provenance in the same vocabulary as flags,
// wire sessions, and JobSpecs.
type Fingerprinter interface {
	Fingerprint() string
}

// Fingerprint implements Fingerprinter.
func (s *Pixel) Fingerprint() string {
	return fmt.Sprintf("pixel:slope=%g,final=%g,bias=%g,warmup=%d,smooth=%g",
		s.Slope, s.FinalSlope, s.BackgroundBias, s.WarmupIters, s.SmoothWeight)
}

// Fingerprint implements Fingerprinter.
func (s *LevelSet) Fingerprint() string {
	return fmt.Sprintf("levelset:eps=%g,curv=%g,reinit=%d", s.Epsilon, s.Curvature, s.ReinitEvery)
}

// Fingerprint implements Fingerprinter.
func (s *MultiLevel) Fingerprint() string {
	inner := "default"
	if s.Pixel != nil {
		inner = s.Pixel.Fingerprint()
	}
	return fmt.Sprintf("multilevel:levels=%d,coarse=%g,clean=%d,pixel=(%s)",
		s.Levels, s.CoarseFrac, s.CleanRadius, inner)
}

// BatchSolver is a Solver that can optimise several tiles in lockstep,
// sharing the frequency-domain work of each iteration across the whole
// batch (litho.LossGradBatch). Each tile's result must be bit-identical
// to a lone Solve with the same inputs — batching is a throughput
// lever, never a numerics change.
type BatchSolver interface {
	Solver
	// SolveBatch solves tiles i = 0..T-1 from (targets[i], inits[i],
	// ps[i]) and returns per-tile results and errors (outs[i] is nil
	// exactly when errs[i] is non-nil). The lockstep fields of ps —
	// Iters, LR, Stretch, PVWeight — must agree across
	// the batch; Ctx and Freeze may differ per tile, and a tile whose
	// context cancels drops out of the batch without disturbing the
	// others.
	SolveBatch(targets, inits []*grid.Mat, ps []Params) ([]*grid.Mat, []error)
}

// lockstepCompatible reports whether two Params can share a lockstep
// batch.
func lockstepCompatible(a, b Params) bool {
	return a.Iters == b.Iters && a.LR == b.LR && a.Stretch == b.Stretch &&
		a.PVWeight == b.PVWeight
}
