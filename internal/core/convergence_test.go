// Convergence property suite for the two-level Schwarz tentpole
// (black-box, so it can drive the bench scaling sweep without an
// import cycle): the coarse-space correction must beat one-level
// Schwarz in iterations-to-quality across tile counts, dropout must
// never move the final mask beyond its tolerance, and with every knob
// off the flow must stay bit-identical to the frozen schedule.
package core_test

import (
	"math"
	"testing"

	"mgsilt/internal/bench"
	"mgsilt/internal/core"
	"mgsilt/internal/grid"
	"mgsilt/internal/kernels"
	"mgsilt/internal/layout"
	"mgsilt/internal/litho"
	"mgsilt/internal/opt"
)

const (
	convN    = 64
	convClip = 128
)

func convSim(t testing.TB) *litho.Simulator {
	t.Helper()
	cfg := kernels.DefaultConfig(convN)
	nom := kernels.MustGenerate(cfg)
	def, err := kernels.Defocused(cfg, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := litho.New(nom, def, litho.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func convTarget(t testing.TB, seed int64) *grid.Mat {
	t.Helper()
	clip, err := layout.Generate(layout.DefaultConfig(convClip, seed))
	if err != nil {
		t.Fatal(err)
	}
	return clip.Target
}

// passthroughSolver returns its initialisation unchanged; it isolates
// the flow's plumbing from the optimiser exactly like the white-box
// suite's identitySolver.
type passthroughSolver struct{}

func (passthroughSolver) Solve(_, init *grid.Mat, _ opt.Params) (*grid.Mat, error) {
	return init.Clone(), nil
}
func (passthroughSolver) Name() string { return "passthrough" }

// TestTwoLevelBeatsOneLevelAcrossTileCounts runs the calibrated bench
// sweep (giant-polygon clip, 2×2 → 8×8 margin-0 grids, fixed quality
// bar) and asserts the Snippet 1 property at every tile count, not
// just the 4×4/8×8 pair RunScaling itself enforces.
func TestTwoLevelBeatsOneLevelAcrossTileCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full scalability sweep; skipped in -short")
	}
	env, err := bench.NewEnv(bench.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	res, err := env.RunScaling(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("%d grid points, want 3", len(res.Points))
	}
	for _, p := range res.Points {
		if p.TwoLevelIters >= p.OneLevelIters {
			t.Errorf("%d×%d: two-level %d iters not below one-level %d",
				p.Tiles, p.Tiles, p.TwoLevelIters, p.OneLevelIters)
		}
	}
	if res.Dropout.SolvesSkipped == 0 {
		t.Error("dropout phase skipped no solves")
	}
}

// TestCoarseCorrectIdentityNoOp pins the FAS property the correction
// is built on: with a solver that returns its initialisation, the
// lifted coarse solution equals the layout's own restrict-then-lift
// round trip, δ = 0 exactly, and the corrected flow is bit-identical
// to the uncorrected one — while still executing (and counting) every
// coarse-correct stage.
func TestCoarseCorrectIdentityNoOp(t *testing.T) {
	sim := convSim(t)
	target := convTarget(t, 11)

	run := func(correct bool) *core.Result {
		cfg := core.DefaultConfig(sim, convClip, 4)
		cfg.Solver = passthroughSolver{}
		cfg.CoarseCorrect = correct
		res, err := core.MultigridSchwarz(cfg, target)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off := run(false)
	on := run(true)
	if !on.Mask.Equal(off.Mask) {
		t.Fatal("identity-solver coarse correction changed the mask (δ should be exactly 0)")
	}
	if off.CoarseCorrections != 0 {
		t.Fatalf("off run counted %d corrections", off.CoarseCorrections)
	}
	if want := 1; on.CoarseCorrections != want { // FineStages=2 → 1 correction
		t.Fatalf("on run counted %d corrections, want %d", on.CoarseCorrections, want)
	}
}

// TestCoarseCorrectOffBitIdentical asserts the knobs are inert while
// CoarseCorrect is false: setting every correction parameter must not
// move a single bit of the real-solver flow.
func TestCoarseCorrectOffBitIdentical(t *testing.T) {
	sim := convSim(t)
	target := convTarget(t, 12)

	base := core.DefaultConfig(sim, convClip, 4)
	ref, err := core.MultigridSchwarz(base, target)
	if err != nil {
		t.Fatal(err)
	}

	knobbed := core.DefaultConfig(sim, convClip, 4)
	knobbed.CoarseCorrectScale = 2
	knobbed.CoarseCorrectIters = 7
	knobbed.CoarseCorrectBlend = 0.3
	knobbed.DropWindow = 3
	got, err := core.MultigridSchwarz(knobbed, target)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Mask.Equal(ref.Mask) {
		t.Fatal("correction knobs changed the mask with CoarseCorrect off")
	}
	if got.CoarseCorrections != 0 || got.TilesConverged != 0 || got.TileSolvesSkipped != 0 {
		t.Fatalf("off run reported work: %d corrections, %d converged, %d skipped",
			got.CoarseCorrections, got.TilesConverged, got.TileSolvesSkipped)
	}
}

// TestDropoutIdentityConverges drives dropout through its exact
// fast path: an identity solver never changes a tile, so every tile's
// stage-over-stage RMS is 0, every tile converges at the second stage,
// and all later stages skip the whole batch — without moving the mask.
func TestDropoutIdentityConverges(t *testing.T) {
	sim := convSim(t)
	target := convTarget(t, 13)

	run := func(tol float64) *core.Result {
		cfg := core.DefaultConfig(sim, convClip, 4)
		cfg.Solver = passthroughSolver{}
		cfg.FineStages = 4
		cfg.FineIters = 4
		cfg.DropTol = tol
		res, err := core.MultigridSchwarz(cfg, target)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(0)
	got := run(1e-9)
	if !got.Mask.Equal(ref.Mask) {
		t.Fatal("identity-solver dropout changed the mask")
	}
	// 3×3 tiles: all 9 converge after stage 2, stages 3 and 4 skip all.
	if got.TilesConverged != 9 {
		t.Fatalf("%d tiles converged, want 9", got.TilesConverged)
	}
	if want := 2 * 9; got.TileSolvesSkipped != want {
		t.Fatalf("%d solves skipped, want %d", got.TileSolvesSkipped, want)
	}
	if ref.TilesConverged != 0 || ref.TileSolvesSkipped != 0 {
		t.Fatalf("DropTol=0 run reported dropout work: %+v", ref)
	}
}

// TestDropoutBoundedByDropTol is the real-solver contract: turning
// dropout on must actually skip work, and the final mask must never
// move beyond DropTol (per-pixel RMS against the always-solve mask —
// a dropped tile was changing by at most ≈DropTol RMS per stage when
// it was declared converged).
func TestDropoutBoundedByDropTol(t *testing.T) {
	sim := convSim(t)
	target := convTarget(t, 14)

	run := func(tol float64) *core.Result {
		cfg := core.DefaultConfig(sim, convClip, 8)
		cfg.FineStages = 4
		cfg.FineIters = 16
		cfg.RefineIters = 0
		cfg.DropTol = tol
		res, err := core.MultigridSchwarz(cfg, target)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(0)
	for _, tol := range []float64{0.05, 0.1} {
		got := run(tol)
		if got.TilesConverged == 0 || got.TileSolvesSkipped == 0 {
			t.Fatalf("dropout did no work at tol %g: %d converged, %d skipped",
				tol, got.TilesConverged, got.TileSolvesSkipped)
		}
		rms := math.Sqrt(got.Mask.L2Diff(ref.Mask) / float64(convClip*convClip))
		if rms > tol {
			t.Fatalf("dropout at tol %g moved the mask by RMS %g", tol, rms)
		}
	}
}
