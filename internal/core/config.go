// Package core implements the paper's contribution — the
// multigrid-Schwarz full-chip ILT framework of Section 3 — together
// with the flows it is evaluated against in Section 4:
//
//   - MultigridSchwarz: coarse-grid ILT (Algorithm 1) → staged
//     fine-grid ILT with modified-RAS boundary refresh and weighted
//     smoothing assembly (Section 3.3) → multi-colour multiplicative
//     Schwarz refinement (Section 3.4).
//   - DivideAndConquer: the traditional baseline — tiles optimised
//     independently to convergence and assembled with Eq. (6).
//   - FullChip: whole-clip ILT without partitioning (the quality
//     reference of Table 1).
//   - StitchAndHeal: the re-optimise-the-boundary baseline of [6],
//     which Fig. 7 shows merely moves stitch errors to the healing
//     windows' own edges.
//
// All flows share one evaluation path (final inspection with Eq. (3)
// full-area simulation on the binarised mask, as in the paper) and one
// device/cluster abstraction for parallelism measurements.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"mgsilt/internal/cache"
	"mgsilt/internal/device"
	"mgsilt/internal/fft"
	"mgsilt/internal/grid"
	"mgsilt/internal/litho"
	"mgsilt/internal/metrics"
	"mgsilt/internal/opt"
	"mgsilt/internal/pipeline"
	"mgsilt/internal/sched"
	"mgsilt/internal/tile"
)

// Config describes one experiment setup: the optics, the solver φ(·),
// the tiling geometry and the iteration schedule of Section 4.
type Config struct {
	Sim *litho.Simulator
	// Solver is φ(·); nil means opt.NewPixel(Sim), the
	// opt.DefaultSolver. Callers that select by registry name resolve
	// it once with opt.New.
	Solver opt.Solver

	Cluster *device.Cluster // nil → single device, unlimited memory

	// TileCache, when non-nil, short-circuits full-resolution tile
	// solves (fine stages, refine, D&C, healing windows) whose content
	// address (tile-local target/init/freeze + optics +
	// solver fingerprints + solve params) is already cached: hits skip
	// the device dispatch entirely — no job, no virtual time charged —
	// and return the stored result bit-identically. Misses solve once
	// per key, across the round and across concurrent flows sharing the
	// cache, and populate it. Requires a solver that implements
	// opt.Fingerprinter; others bypass the cache. Safe to share across
	// concurrent flows/jobs.
	TileCache *cache.Cache

	// Batch, when non-nil and the solver implements opt.BatchSolver,
	// cuts each round's cache-missing full-resolution tile solves into
	// lockstep runs of one class (sched.Batcher.Plan), each solved as
	// one device job. Results stay bit-identical to direct solves.
	// Solvers without batch support solve one tile per job.
	Batch *sched.Batcher

	// Tiles, when non-nil, replaces the in-process tile fan-out: every
	// round of the one Schwarz sweep (fine stages, refine colour groups,
	// coarse grids, coarse corrections, D&C, healing windows) is
	// dispatched through this backend instead of the flow's
	// device.Cluster. internal/shard's Coordinator implements it by
	// partitioning each round over remote worker processes, exchanging
	// only overlap-halo strips between Schwarz stages. Because the sweep
	// puts the solutions back itself in window order, results are
	// bit-identical at any shard count.
	// FullChip's single whole-clip job always runs on the local cluster
	// (the paper's ideal-device baseline has no tile fan-out to shard).
	// When Tiles is set, TileCache and Batch do not apply: the shard
	// workers solve through their own Local, with neither.
	Tiles TileBackend

	// Ctx carries the flow's deadline/cancellation. It is threaded
	// into every cluster batch (device.Cluster.RunCtx) and every
	// solver iteration (opt.Params.Ctx), so cancelling it stops a
	// running flow mid-iteration with Ctx.Err() instead of letting it
	// run to completion. nil means context.Background().
	Ctx context.Context

	// Progress, when non-nil, is invoked from the flow's goroutine at
	// the start of each schedulable unit of work: stage names the
	// phase ("coarse", "fine", "refine", "solve", "heal", "inspect"),
	// iter is the 1-based unit within the phase and total the phase's
	// unit count. Long-lived callers (the job service) surface it
	// through polling; it must be cheap and non-blocking.
	Progress func(stage string, iter, total int)

	// Checkpoint, when non-nil, is invoked from the flow's goroutine
	// after each completed stage with a snapshot sufficient to resume
	// the flow from that stage (the mask is a private clone, taken
	// lazily — no hook, no clone). Every flow runs on the stage
	// pipeline engine, so every flow checkpoints: MultigridSchwarz
	// stages each coarse level, fine stage and refine sweep;
	// StitchAndHeal its inner solve plus each healed line;
	// DivideAndConquer and FullChip a single stage.
	Checkpoint func(Checkpoint)

	// Resume, when non-nil, restarts the flow from the given checkpoint
	// instead of from scratch: stages up to and including Resume.Stage
	// are skipped and the layout is seeded from Resume.Mask. The
	// checkpoint must come from the same flow and an identical Config,
	// or the result is undefined (flow name and mask shape are
	// validated; the iteration schedule is the caller's contract).
	Resume *Checkpoint

	// StageDone, when non-nil, receives the pipeline engine's timing
	// entry after each executed stage (and the final "inspect"
	// evaluation). The job service feeds its stage timeline and the
	// ilt_stage_duration_seconds histogram from this hook; it must be
	// cheap and non-blocking.
	StageDone func(pipeline.StageTiming)

	ClipSize   int // layout side (power-of-two multiple of Sim.N())
	TileSize   int // tile side (the paper uses Sim.N())
	Margin     int // l: overlap between adjacent tiles is 2l
	BlendWidth int // D of Eq. (13); even, ≤ 2·Margin; 0 = hard RAS

	// Iteration schedule (the paper's single-GPU run uses 60 coarse,
	// 40 fine in 2 stages, 4 refine; baselines use 100).
	CoarseScale int // s_max of Algorithm 1 (power of two; 0 or 1 disables)
	CoarseIters int
	FineIters   int // total across all stages
	FineStages  int
	RefineIters int // multiplicative sweeps
	// RefineVisitIters is the number of solver iterations per tile per
	// colour visit during refine.
	RefineVisitIters int
	BaselineIters    int // per-tile iterations for D&C / full-chip / healing

	LR       float64 // solver learning rate
	PVWeight float64 // process-window weight in the objective

	Stitch metrics.StitchConfig

	// CoarseClean is the radius of the morphological open/close pass
	// applied to the binarised coarse-grid hand-off. The factor-s lift
	// turns coarse-pixel SRAF speckles into sub-resolution debris that
	// cannot print but pollutes the fine solver's starting point; an
	// opening of radius r removes features thinner than 2r+1 px.
	// 0 disables cleaning.
	CoarseClean int

	// CoarseCorrect enables the two-level Schwarz correction: between
	// consecutive fine Schwarz stages the flow restricts the assembled
	// layout to a coarse grid, runs a short coarse ILT correction step
	// against the restricted target, lifts the result back and adds the
	// full difference against the layout's own restrict-then-lift round
	// trip, clamped to [0, 1] (an FAS-style coarse-space correction with
	// unit step). One-level Schwarz
	// convergence degrades as the tile count grows because information
	// crosses at most one overlap per stage; the coarse space restores
	// global coupling, making iterations-to-quality near tile-count
	// independent (the Snippet-1 scalability result, measured by
	// `iltbench -experiment scaling`). Off by default; the default
	// schedule is bit-identical with it off.
	CoarseCorrect bool
	// CoarseCorrectScale is the restriction factor of the correction
	// grid: coarse tiles are CoarseCorrectScale·TileSize wide and are
	// downsampled by the same factor before solving. Power of two, ≥ 2,
	// with CoarseCorrectScale·TileSize ≤ ClipSize; 0 selects CoarseScale
	// when the cascade is enabled, else 2. ClipSize/TileSize makes the
	// correction a single global coarse solve.
	CoarseCorrectScale int
	// CoarseCorrectIters is the solver budget of each correction step;
	// 0 selects max(1, CoarseIters/4).
	CoarseCorrectIters int

	// DropTol enables per-tile convergence dropout when positive: a
	// tile whose fine-stage solution changes by at most DropTol
	// (per-pixel RMS against its previous solution) from one fine
	// stage to the next is converged and drops out of the remaining
	// fine stages. Dropped tiles are not dispatched to the backend at
	// all — the tile cache, lockstep batching and the shard
	// coordinator simply see smaller batches — and contribute their
	// current assembled state instead, which the partition-of-unity
	// weights reproduce exactly. 0 (the default) disables dropout and
	// keeps every flow bit-identical to the always-solve schedule.
	//
	// Dropout state is not part of the checkpoint: a run resumed after
	// fine stage k, 1 ≤ k < FineStages, would start its remaining fine
	// stages with no tile converged and no previous solution, and
	// re-solve tiles the uninterrupted run skips. MultigridSchwarz
	// refuses that resume with ErrResumeDropout. A resume from any other
	// stage, and every resume with DropTol 0, is bit-identical to the
	// uninterrupted run.
	DropTol float64
}

// Sentinel validation errors, matchable with errors.Is; Validate wraps
// them with the offending values.
var (
	// ErrCoarseScale rejects an Algorithm-1 cascade scale that is not a
	// power of two or whose coarsest tile exceeds the clip.
	ErrCoarseScale = errors.New("invalid coarse scale")
	// ErrCoarseCorrectScale rejects a two-level correction grid whose
	// scale is not a power of two ≥ 2 or whose coarse tile exceeds the
	// clip.
	ErrCoarseCorrectScale = errors.New("invalid coarse-correct scale")
	// ErrDropSchedule rejects a negative dropout tolerance.
	ErrDropSchedule = errors.New("invalid dropout schedule")
)

// DefaultConfig returns the experiment configuration used throughout
// the suite, scaled from the paper's geometry: tile = N, margin = N/4
// (overlap 2l = N/2), 3×3 tiles on a 2N clip, iteration schedule
// 60/40(2 stages)/4 scaled by the ratio iters/100.
func DefaultConfig(sim *litho.Simulator, clipSize, iters int) Config {
	n := sim.N()
	scale := func(x int) int {
		v := x * iters / 100
		if v < 1 {
			v = 1
		}
		return v
	}
	stitch := metrics.DefaultStitchConfig()
	if w := clipSize / 32; w < stitch.Window {
		// Keep windows proportional on reduced grids (40 px at the
		// paper's 4096-per-clip scale ≈ clip/102; clip/32 is generous
		// enough to capture the jag neighbourhood).
		stitch.Window = max(8, w)
	}
	return Config{
		Sim:        sim,
		ClipSize:   clipSize,
		TileSize:   n,
		Margin:     n / 4,
		BlendWidth: n / 2, // full-overlap feathering measured best

		CoarseScale:      2,
		CoarseIters:      scale(60),
		FineIters:        max(scale(40), 2),
		FineStages:       2,
		RefineIters:      scale(4),
		RefineVisitIters: 2,
		BaselineIters:    iters,
		LR:               0.4,
		PVWeight:         0,
		Stitch:           stitch,
		CoarseClean:      2,
	}
}

// Validate checks the configuration for consistency.
func (c *Config) Validate() error {
	if c.Sim == nil {
		return fmt.Errorf("core: Sim is required")
	}
	n := c.Sim.N()
	if c.ClipSize < n || c.ClipSize%n != 0 || !fft.IsPow2(c.ClipSize/n) {
		return fmt.Errorf("core: clip %d is not a power-of-two multiple of N=%d", c.ClipSize, n)
	}
	if c.TileSize%n != 0 || !fft.IsPow2(c.TileSize/n) {
		return fmt.Errorf("core: tile %d is not a power-of-two multiple of N=%d", c.TileSize, n)
	}
	if _, err := tile.Part(c.ClipSize, c.ClipSize, c.TileSize, c.Margin); err != nil {
		return err
	}
	if c.BlendWidth < 0 || c.BlendWidth > 2*c.Margin || c.BlendWidth%2 != 0 {
		return fmt.Errorf("core: blend width %d invalid for margin %d", c.BlendWidth, c.Margin)
	}
	if c.CoarseScale != 0 && (!fft.IsPow2(c.CoarseScale) || c.CoarseScale*c.TileSize > c.ClipSize) {
		return fmt.Errorf("core: %w: %d for clip %d / tile %d", ErrCoarseScale, c.CoarseScale, c.ClipSize, c.TileSize)
	}
	if s := c.CoarseCorrectScale; s != 0 && (s < 2 || !fft.IsPow2(s) || s*c.TileSize > c.ClipSize) {
		return fmt.Errorf("core: %w: %d for clip %d / tile %d", ErrCoarseCorrectScale, s, c.ClipSize, c.TileSize)
	}
	if c.CoarseCorrect {
		if s := c.coarseCorrectScale(); s*c.TileSize > c.ClipSize {
			return fmt.Errorf("core: %w: resolved scale %d for clip %d / tile %d", ErrCoarseCorrectScale, s, c.ClipSize, c.TileSize)
		}
	}
	if c.CoarseCorrectIters < 0 {
		return fmt.Errorf("core: coarse-correct schedule %d iters invalid", c.CoarseCorrectIters)
	}
	if c.DropTol < 0 {
		return fmt.Errorf("core: %w: tol %g", ErrDropSchedule, c.DropTol)
	}
	if c.FineStages < 1 || c.FineIters < c.FineStages {
		return fmt.Errorf("core: fine schedule %d iters / %d stages invalid", c.FineIters, c.FineStages)
	}
	if c.CoarseIters < 0 || c.RefineIters < 0 || c.BaselineIters < 1 {
		return fmt.Errorf("core: negative or zero iteration counts")
	}
	if c.RefineIters > 0 && c.RefineVisitIters < 1 {
		return fmt.Errorf("core: RefineVisitIters must be >= 1 when refining")
	}
	if c.LR <= 0 {
		return fmt.Errorf("core: learning rate must be positive")
	}
	return nil
}

// coarseCorrectScale resolves the correction grid's restriction
// factor: CoarseCorrectScale when set, else the cascade's CoarseScale
// when enabled, else 2.
func (c *Config) coarseCorrectScale() int {
	if c.CoarseCorrectScale != 0 {
		return c.CoarseCorrectScale
	}
	if c.CoarseScale >= 2 {
		return c.CoarseScale
	}
	return 2
}

func (c *Config) solver() opt.Solver {
	if c.Solver != nil {
		return c.Solver
	}
	return opt.NewPixel(c.Sim)
}

// ctx returns the flow context, defaulting to context.Background().
func (c *Config) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// progress reports one unit of flow progress if a hook is installed.
func (c *Config) progress(stage string, iter, total int) {
	if c.Progress != nil {
		c.Progress(stage, iter, total)
	}
}

// Checkpoint is a stage-level snapshot of a running flow — the engine
// type re-exported, so service/CLI code keeps speaking core.Checkpoint
// while the pipeline engine owns emission, validation and disk
// serialisation (pipeline.WriteCheckpoint / ReadCheckpoint).
type Checkpoint = pipeline.Checkpoint

// engine assembles the pipeline run for one flow, wiring the Config's
// cross-cutting hooks (ctx, progress, checkpoint, resume, timing) so
// every flow is uniformly instrumented and resumable.
func (c *Config) engine(flow string, stages []pipeline.Stage) *pipeline.Pipeline {
	return &pipeline.Pipeline{
		Flow:       flow,
		Clip:       c.ClipSize,
		Stages:     stages,
		Ctx:        c.Ctx,
		Progress:   c.Progress,
		Checkpoint: c.Checkpoint,
		StageDone:  c.StageDone,
		Resume:     c.Resume,
	}
}

func (c *Config) cluster() *device.Cluster {
	if c.Cluster != nil {
		return c.Cluster
	}
	cl, err := device.NewCluster(1, 0)
	if err != nil {
		panic(err) // unreachable: arguments are static
	}
	return cl
}

// Result is the outcome of one flow on one clip, carrying the Table 1
// columns plus the artefacts the figure benches need.
type Result struct {
	Method string
	Mask   *grid.Mat // final continuous mask

	L2         float64 // Definition 2
	PVBand     float64 // Definition 3
	StitchLoss float64 // Definition 1, on the partition's stitch lines
	Errors     []metrics.StitchError
	TAT        time.Duration // virtual device-clock makespan of the optimisation (excludes inspection)
	Area       float64       // target area in pixels

	AuxLines []tile.StitchLine // extra boundaries (stitch-and-heal windows)
	Stats    device.Stats      // cluster accounting snapshot

	// Two-level Schwarz accounting (multigrid-Schwarz flow only; all
	// zero when CoarseCorrect and DropTol are off): tiles that reached
	// the DropTol convergence criterion, fine-stage tile solves dropout
	// skipped, and coarse-correction stages executed. Resume-skipped
	// stages contribute nothing (the counters reflect executed work).
	TilesConverged    int
	TileSolvesSkipped int
	CoarseCorrections int

	// Timeline is the engine's per-stage wall-time record for the
	// stages this run actually executed (resume-skipped stages do not
	// appear), closed by the final "inspect" evaluation entry.
	Timeline []pipeline.StageTiming
}

// evaluate runs the paper's final inspection: binarise the mask and
// simulate the entire clip with Eq. (3), then measure Definitions 1-3.
// The inspection is timed like an engine stage and appended to the
// run's timeline.
func (c *Config) evaluate(method string, mask, target *grid.Mat, lines []tile.StitchLine, tat time.Duration, cl *device.Cluster, timeline []pipeline.StageTiming) *Result {
	c.progress("inspect", 1, 1)
	start := time.Now()
	binary := mask.Binarize(0.5)
	l2, pvband := metrics.Inspect(c.Sim, binary, target)
	res := &Result{
		Method: method,
		Mask:   mask,
		L2:     l2,
		PVBand: pvband,
		TAT:    tat,
		Area:   target.Sum(),
	}
	res.StitchLoss, res.Errors = metrics.StitchLoss(binary, lines, c.Stitch)
	res.Stats = c.runStats(cl)
	inspect := pipeline.StageTiming{Name: "inspect", Iter: 1, Total: 1, Wall: time.Since(start)}
	if c.StageDone != nil {
		c.StageDone(inspect)
	}
	res.Timeline = append(timeline, inspect)
	return res
}
