package opt

import "mgsilt/internal/grid"

// Fingerprinter is implemented by solvers whose results can be
// content-addressed. The fingerprint is the solver's registry name:
// a solver has no settings, so its name and the simulator's physics
// (fingerprinted separately, litho.Simulator.Fingerprint) fix its
// numerics. It feeds the tile-result cache key — equal fingerprints
// plus equal optics plus equal tile inputs imply bit-equal results —
// and the scheduler's compatibility classes, in the same vocabulary as
// flags, wire sessions and JobSpecs. The numerics themselves are
// constants in code, so a change that moves one of them bumps
// cache.codeVersion. Solvers that do not implement it are simply not
// cached or batched.
type Fingerprinter interface {
	Fingerprint() string
}

// Fingerprint implements Fingerprinter.
func (s *Pixel) Fingerprint() string { return "pixel" }

// Fingerprint implements Fingerprinter.
func (s *LevelSet) Fingerprint() string { return "levelset" }

// Fingerprint implements Fingerprinter.
func (s *MultiLevel) Fingerprint() string { return "multilevel" }

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
