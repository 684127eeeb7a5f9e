package core

import (
	"errors"
	"math"
	"testing"

	"mgsilt/internal/device"
	"mgsilt/internal/grid"
	"mgsilt/internal/kernels"
	"mgsilt/internal/layout"
	"mgsilt/internal/litho"
	"mgsilt/internal/opt"
	"mgsilt/internal/pipeline"
)

// StageTiming is the name TestStageSequenceFreeze gives the engine's
// per-stage record; the freeze test stays as written.
type StageTiming = pipeline.StageTiming

const (
	testN    = 64
	testClip = 128
)

func testSim(t testing.TB) *litho.Simulator {
	t.Helper()
	cfg := kernels.DefaultConfig(testN)
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

func testClipTarget(t testing.TB, seed int64) *grid.Mat {
	t.Helper()
	clip, err := layout.Generate(layout.DefaultConfig(testClip, seed))
	if err != nil {
		t.Fatal(err)
	}
	return clip.Target
}

func testConfig(t testing.TB, sim *litho.Simulator, iters int) Config {
	t.Helper()
	cfg := DefaultConfig(sim, testClip, iters)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// identitySolver returns its initial mask unchanged — it isolates the
// partition/assembly plumbing from the optimisation.
type identitySolver struct{}

func (identitySolver) Solve(target, init *grid.Mat, p opt.Params) (*grid.Mat, error) {
	return init.Clone(), nil
}
func (identitySolver) Name() string { return "identity" }

func TestDefaultConfigGeometry(t *testing.T) {
	sim := testSim(t)
	cfg := DefaultConfig(sim, testClip, 100)
	if cfg.TileSize != testN || cfg.Margin != testN/4 || cfg.BlendWidth != testN/2 {
		t.Fatalf("geometry %d/%d/%d", cfg.TileSize, cfg.Margin, cfg.BlendWidth)
	}
	if cfg.CoarseIters != 60 || cfg.FineIters != 40 || cfg.FineStages != 2 || cfg.RefineIters != 4 {
		t.Fatalf("schedule %d/%d/%d/%d", cfg.CoarseIters, cfg.FineIters, cfg.FineStages, cfg.RefineIters)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	sim := testSim(t)
	cases := []struct {
		name   string
		mutate func(*Config)
		// want, when non-nil, is the sentinel the returned error must
		// match via errors.Is — asserting identity, not message text.
		want error
	}{
		{name: "nil sim", mutate: func(c *Config) { c.Sim = nil }},
		{name: "clip not pow2 multiple", mutate: func(c *Config) { c.ClipSize = 96 }},
		{name: "tile not pow2 multiple", mutate: func(c *Config) { c.TileSize = 48 }},
		{name: "margin too large", mutate: func(c *Config) { c.Margin = 40 }},
		{name: "blend width odd", mutate: func(c *Config) { c.BlendWidth = 33 }},
		{name: "blend width beyond overlap", mutate: func(c *Config) { c.BlendWidth = 100 }},
		{name: "coarse scale not pow2", mutate: func(c *Config) { c.CoarseScale = 3 }, want: ErrCoarseScale},
		{name: "coarse tile exceeds clip", mutate: func(c *Config) { c.CoarseScale = 4 }, want: ErrCoarseScale}, // 4·64 > 128
		{name: "correct scale not pow2", mutate: func(c *Config) { c.CoarseCorrectScale = 3 }, want: ErrCoarseCorrectScale},
		{name: "correct scale below 2", mutate: func(c *Config) { c.CoarseCorrectScale = 1 }, want: ErrCoarseCorrectScale},
		{name: "correct tile exceeds clip", mutate: func(c *Config) { c.CoarseCorrectScale = 4 }, want: ErrCoarseCorrectScale},
		{
			name: "correction on with oversized cascade scale",
			mutate: func(c *Config) {
				// The resolved correction grid inherits CoarseScale; an
				// (independently invalid) cascade must not slip through
				// the CoarseCorrect resolution path either.
				c.CoarseCorrect = true
				c.CoarseScale = 4
			},
			want: ErrCoarseScale,
		},
		{name: "negative drop tolerance", mutate: func(c *Config) { c.DropTol = -0.1 }, want: ErrDropSchedule},
		{name: "negative drop window", mutate: func(c *Config) { c.DropWindow = -1 }, want: ErrDropSchedule},
		{name: "negative correct iters", mutate: func(c *Config) { c.CoarseCorrectIters = -1 }},
		{name: "correct blend above 1", mutate: func(c *Config) { c.CoarseCorrectBlend = 1.5 }},
		{name: "no fine stages", mutate: func(c *Config) { c.FineStages = 0 }},
		{name: "fine iters below stages", mutate: func(c *Config) { c.FineIters = 1; c.FineStages = 2 }},
		{name: "zero baseline iters", mutate: func(c *Config) { c.BaselineIters = 0 }},
		{name: "zero LR", mutate: func(c *Config) { c.LR = 0 }},
		{name: "negative refine LR", mutate: func(c *Config) { c.RefineLR = -1 }},
		{name: "heal band zero", mutate: func(c *Config) { c.HealBand = 0 }},
		{name: "heal band too wide", mutate: func(c *Config) { c.HealBand = 32 }},
		{name: "unknown solver name", mutate: func(c *Config) { c.SolverName = "quantum" }, want: opt.ErrUnknownSolver},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(sim, testClip, 10)
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("config should be invalid")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("error %v does not match sentinel %v", err, tc.want)
			}
		})
	}
}

// TestSolverResolution pins the three-way precedence of the solver
// seam: an explicit Solver instance wins, then the registry name, then
// the pixel default.
func TestSolverResolution(t *testing.T) {
	sim := testSim(t)
	cfg := DefaultConfig(sim, testClip, 10)
	if got := cfg.solver().Name(); got != "pixel-ilt" {
		t.Fatalf("default solver = %q", got)
	}
	cfg.SolverName = "levelset"
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := cfg.solver().Name(); got != "gls-ilt" {
		t.Fatalf("named solver = %q", got)
	}
	cfg.Solver = identitySolver{}
	if got := cfg.solver().Name(); got != "identity" {
		t.Fatalf("instance override = %q", got)
	}
}

func TestValidateCoarseScaleBoundary(t *testing.T) {
	// CoarseScale·TileSize == ClipSize is the largest legal cascade (a
	// single coarse tile covering the whole clip); one step beyond is
	// rejected. The boundary itself must stay valid — the scaling
	// experiment's global coarse correction depends on it.
	sim := testSim(t)
	cfg := DefaultConfig(sim, testClip, 10)
	cfg.CoarseScale = testClip / cfg.TileSize // 2·64 == 128
	if err := cfg.Validate(); err != nil {
		t.Fatalf("boundary coarse scale rejected: %v", err)
	}
	cfg.CoarseCorrectScale = testClip / cfg.TileSize
	cfg.CoarseCorrect = true
	if err := cfg.Validate(); err != nil {
		t.Fatalf("boundary coarse-correct scale rejected: %v", err)
	}
	cfg.CoarseCorrectScale = 2 * testClip / cfg.TileSize
	if err := cfg.Validate(); !errors.Is(err, ErrCoarseCorrectScale) {
		t.Fatalf("beyond-clip correct scale: got %v, want ErrCoarseCorrectScale", err)
	}
}

func TestFlowsRejectWrongTargetSize(t *testing.T) {
	sim := testSim(t)
	cfg := testConfig(t, sim, 4)
	bad := grid.NewMat(testN, testN)
	if _, err := MultigridSchwarz(cfg, bad); err == nil {
		t.Fatal("MGS must reject wrong-size target")
	}
	if _, err := DivideAndConquer(cfg, bad); err == nil {
		t.Fatal("D&C must reject wrong-size target")
	}
	if _, err := FullChip(cfg, bad); err == nil {
		t.Fatal("full-chip must reject wrong-size target")
	}
}

func TestDivideAndConquerIdentitySolverReproducesTarget(t *testing.T) {
	sim := testSim(t)
	cfg := testConfig(t, sim, 4)
	cfg.Solver = identitySolver{}
	target := testClipTarget(t, 1)
	res, err := DivideAndConquer(cfg, target)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mask.AlmostEqual(target, 1e-12) {
		t.Fatal("identity solver + RAS assembly must reproduce the target exactly")
	}
	if res.Method != "divide-and-conquer/identity" {
		t.Fatalf("method %q", res.Method)
	}
}

func TestFullChipIdentitySolver(t *testing.T) {
	sim := testSim(t)
	cfg := testConfig(t, sim, 4)
	cfg.Solver = identitySolver{}
	target := testClipTarget(t, 2)
	res, err := FullChip(cfg, target)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mask.AlmostEqual(target, 1e-12) {
		t.Fatal("identity full-chip must return the target")
	}
	if res.Method != "full-chip" {
		t.Fatalf("method %q", res.Method)
	}
}

func TestMultigridSchwarzIdentitySolverStaysClose(t *testing.T) {
	sim := testSim(t)
	cfg := testConfig(t, sim, 4)
	cfg.Solver = identitySolver{}
	target := testClipTarget(t, 3)
	res, err := MultigridSchwarz(cfg, target)
	if err != nil {
		t.Fatal(err)
	}
	// The coarse down/up-sample round trip blurs edges, but fine-grid
	// stages re-crop from the assembly, so values stay in range and
	// close to the binary target in the mean.
	for _, v := range res.Mask.Data {
		if v < -1e-9 || v > 1+1e-9 {
			t.Fatalf("mask value %v out of range", v)
		}
	}
	mae := 0.0
	for i, v := range res.Mask.Data {
		mae += math.Abs(v - target.Data[i])
	}
	mae /= float64(len(target.Data))
	if mae > 0.1 {
		t.Fatalf("identity MGS drifted from target: MAE %v", mae)
	}
}

func TestMultigridSchwarzEndToEnd(t *testing.T) {
	sim := testSim(t)
	cfg := testConfig(t, sim, 8)
	target := testClipTarget(t, 4)
	res, err := MultigridSchwarz(cfg, target)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "multigrid-schwarz" {
		t.Fatalf("method %q", res.Method)
	}
	if res.L2 <= 0 || res.L2 >= target.Sum() {
		t.Fatalf("implausible L2 %v (target area %v)", res.L2, target.Sum())
	}
	if res.PVBand < 0 {
		t.Fatalf("negative PVBand %v", res.PVBand)
	}
	if res.StitchLoss < 0 {
		t.Fatalf("negative stitch loss %v", res.StitchLoss)
	}
	if res.TAT <= 0 {
		t.Fatal("TAT not measured")
	}
	if res.Area != target.Sum() {
		t.Fatalf("area %v want %v", res.Area, target.Sum())
	}
	for _, v := range res.Mask.Data {
		if v < 0 || v > 1 {
			t.Fatalf("mask value %v out of range", v)
		}
	}
}

func TestMultigridSchwarzBeatsBlankMask(t *testing.T) {
	sim := testSim(t)
	cfg := testConfig(t, sim, 8)
	target := testClipTarget(t, 5)
	res, err := MultigridSchwarz(cfg, target)
	if err != nil {
		t.Fatal(err)
	}
	// A mask that prints nothing has L2 = target area; real
	// optimisation must do far better.
	if res.L2 > 0.5*target.Sum() {
		t.Fatalf("L2 %v is no better than half the blank-mask bound %v", res.L2, target.Sum())
	}
}

func TestDivideAndConquerDeterministic(t *testing.T) {
	sim := testSim(t)
	cfg := testConfig(t, sim, 4)
	target := testClipTarget(t, 6)
	a, err := DivideAndConquer(cfg, target)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DivideAndConquer(cfg, target)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Mask.AlmostEqual(b.Mask, 1e-12) {
		t.Fatal("repeated runs must be bit-identical")
	}
	if a.L2 != b.L2 || a.StitchLoss != b.StitchLoss {
		t.Fatal("metrics must be deterministic")
	}
}

func TestParallelismDoesNotChangeResult(t *testing.T) {
	sim := testSim(t)
	target := testClipTarget(t, 7)

	cfg1 := testConfig(t, sim, 4)
	serial, err := MultigridSchwarz(cfg1, target)
	if err != nil {
		t.Fatal(err)
	}

	cfg4 := testConfig(t, sim, 4)
	cl, err := device.NewCluster(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg4.Cluster = cl
	parallel, err := MultigridSchwarz(cfg4, target)
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Mask.AlmostEqual(parallel.Mask, 1e-12) {
		t.Fatal("device count must not change the solution")
	}
	if parallel.Stats.Jobs == 0 {
		t.Fatal("cluster accounting missing")
	}
}

func TestStitchAndHealProducesAuxLines(t *testing.T) {
	sim := testSim(t)
	cfg := testConfig(t, sim, 4)
	cfg.Solver = identitySolver{}
	target := testClipTarget(t, 8)
	res, err := StitchAndHeal(cfg, target)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "stitch-and-heal" {
		t.Fatalf("method %q", res.Method)
	}
	if !res.Mask.AlmostEqual(target, 1e-12) {
		t.Fatal("identity healing must leave the target unchanged")
	}
	if len(res.AuxLines) == 0 {
		t.Fatal("healing must report its new partition boundaries")
	}
	// Each of the 4 original lines contributes 2 band edges plus the
	// window joints (clip/tile - 1 = 1 per line here).
	if len(res.AuxLines) != 4*3 {
		t.Fatalf("expected 12 aux lines, got %d", len(res.AuxLines))
	}
}

func TestTileAssemblyPenaltyIdentityIsZero(t *testing.T) {
	sim := testSim(t)
	cfg := testConfig(t, sim, 4)
	cfg.Solver = identitySolver{}
	target := testClipTarget(t, 9)
	pen, err := TileAssemblyPenalty(cfg, target)
	if err != nil {
		t.Fatal(err)
	}
	if pen.Increase() != 0 {
		t.Fatalf("identity solver must show zero penalty, got %v", pen.Increase())
	}
	if pen.SingleTileL2 <= 0 {
		t.Fatal("single-tile L2 of an unoptimised mask should be positive")
	}
}

func TestTileAssemblyPenaltyRealSolver(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sim := testSim(t)
	cfg := testConfig(t, sim, 10)
	target := testClipTarget(t, 10)
	pen, err := TileAssemblyPenalty(cfg, target)
	if err != nil {
		t.Fatal(err)
	}
	// Cropping from the assembly must not *improve* the centre tile;
	// Section 2.3 reports it degrades it.
	if pen.AssembledL2 < pen.SingleTileL2-1e-9 {
		t.Fatalf("assembly crop improved the tile: %v vs %v", pen.AssembledL2, pen.SingleTileL2)
	}
}

func TestMultigridSchwarzWithoutCoarsePhase(t *testing.T) {
	sim := testSim(t)
	cfg := testConfig(t, sim, 6)
	cfg.CoarseScale = 0 // ablation: pure Schwarz, no multigrid
	target := testClipTarget(t, 11)
	res, err := MultigridSchwarz(cfg, target)
	if err != nil {
		t.Fatal(err)
	}
	if res.L2 <= 0 {
		t.Fatalf("L2 %v", res.L2)
	}
}

func TestMultigridSchwarzSolverVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sim := testSim(t)
	target := testClipTarget(t, 12)
	for _, solver := range []opt.Solver{opt.NewLevelSet(sim), opt.NewMultiLevel(sim)} {
		cfg := testConfig(t, sim, 6)
		cfg.Solver = solver
		if _, err := DivideAndConquer(cfg, target); err != nil {
			t.Fatalf("%s: %v", solver.Name(), err)
		}
	}
}

func TestMemoryGateRejectsOversizedTiles(t *testing.T) {
	// A cluster whose devices cannot hold even one tile must fail the
	// divide-and-conquer flow — the constraint that motivates the
	// coarse grid's downsampling in Algorithm 1.
	sim := testSim(t)
	cfg := testConfig(t, sim, 4)
	cfg.Solver = identitySolver{}
	cl, err := device.NewCluster(2, cfg.TileSize*cfg.TileSize-1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cluster = cl
	if _, err := DivideAndConquer(cfg, testClipTarget(t, 30)); err == nil {
		t.Fatal("expected device-memory error")
	}
}

func TestCoarsePhaseFitsWhereFineWouldNot(t *testing.T) {
	// Devices that hold exactly one native tile: the coarse phase's
	// downsampled working set (tile²) fits even though the undivided
	// coarse area (s·tile)² would not.
	sim := testSim(t)
	cfg := testConfig(t, sim, 4)
	cfg.Solver = identitySolver{}
	cl, err := device.NewCluster(1, cfg.TileSize*cfg.TileSize)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cluster = cl
	if _, err := MultigridSchwarz(cfg, testClipTarget(t, 31)); err != nil {
		t.Fatalf("coarse downsampling should satisfy the memory gate: %v", err)
	}
}

func TestFullChipBypassesMemoryGate(t *testing.T) {
	// The paper evaluates full-chip ILT "under ideal conditions": the
	// flow must run even on a cluster too small to hold the clip.
	sim := testSim(t)
	cfg := testConfig(t, sim, 4)
	cfg.Solver = identitySolver{}
	cl, err := device.NewCluster(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cluster = cl
	res, err := FullChip(cfg, testClipTarget(t, 32))
	if err != nil {
		t.Fatalf("full-chip must bypass the memory gate: %v", err)
	}
	if res.Stats.Jobs != 1 {
		t.Fatalf("full-chip should run as one cluster job, got %d", res.Stats.Jobs)
	}
}

func TestMultigridTwoCoarseLevels(t *testing.T) {
	// CoarseScale 4 on a 4N clip exercises Algorithm 1's grid cascade
	// (s = 4, then 2) rather than the single coarse level of the
	// default setup.
	kcfg := kernels.DefaultConfig(32)
	nom := kernels.MustGenerate(kcfg)
	def, err := kernels.Defocused(kcfg, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := litho.New(nom, def, litho.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	clip, err := layout.Generate(layout.Config{
		Size: 128, Seed: 3, WireWidth: 10, Pitch: 25, MinGap: 10,
		MinSeg: 30, MaxSeg: 90, Density: 0.5, JogProb: 0.2, StubProb: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(sim, 128, 8)
	cfg.CoarseScale = 4
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := MultigridSchwarz(cfg, clip.Target)
	if err != nil {
		t.Fatal(err)
	}
	if res.L2 < 0 || res.L2 >= float64(128*128) {
		t.Fatalf("implausible L2 %v", res.L2)
	}
}
