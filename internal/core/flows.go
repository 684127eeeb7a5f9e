package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"mgsilt/internal/device"
	"mgsilt/internal/filter"
	"mgsilt/internal/grid"
	"mgsilt/internal/opt"
	"mgsilt/internal/parallel"
	"mgsilt/internal/pipeline"
	"mgsilt/internal/tile"
)

// ErrUnknownFlow is the sentinel Flow wraps for a name no flow has.
var ErrUnknownFlow = errors.New("core: unknown flow")

// ErrResumeDropout is the sentinel MultigridSchwarz returns, before it
// runs a stage, for a resume with DropTol > 0 from a checkpoint taken
// after fine stage k, 1 ≤ k < FineStages. The checkpoint holds only the
// mask, not which tiles had converged nor their last solutions, so the
// remaining fine stages would decide differently from the
// uninterrupted run. Every other checkpoint resumes bit-identically.
var ErrResumeDropout = errors.New("core: a dropout run cannot resume between fine stages")

// flows names each flow once, in the vocabulary the job service and the
// command-line tools select by. A paper method is one of these names
// plus an opt registry solver.
var flows = []struct {
	name string
	run  func(Config, *grid.Mat) (*Result, error)
}{
	{"mgs", MultigridSchwarz},
	{"dc", DivideAndConquer},
	{"fullchip", FullChip},
	{"heal", StitchAndHeal},
}

// Flow returns the flow called name: "mgs" (MultigridSchwarz), "dc"
// (DivideAndConquer), "fullchip" (FullChip) or "heal" (StitchAndHeal).
// Any other name returns an error wrapping ErrUnknownFlow that lists
// the flow names.
func Flow(name string) (func(Config, *grid.Mat) (*Result, error), error) {
	names := make([]string, len(flows))
	for i, f := range flows {
		if f.name == name {
			return f.run, nil
		}
		names[i] = f.name
	}
	return nil, fmt.Errorf("%w %q (flows: %s)", ErrUnknownFlow, name, strings.Join(names, " | "))
}

// refineLR is the small learning rate of the multiplicative refine pass
// (Section 3.4).
const refineLR = 0.08

// sweep is one Schwarz round, the one routine every partitioned stage
// runs (SNIPPETS.md Snippet 2's copy_to_square / add_from_square pair).
// Each size×size window is cropped from the *current* layout m and from
// target — so margins carry the neighbours' latest values, the
// modified-Schwarz boundary condition of Eq. (11) — and restricted by
// scale; all windows are solved in one backend round, lifted back by
// scale, and handed to put in window order. put decides how a solution
// enters the layout: weighted assembly, in-place blend or band paste.
// freeze, when non-nil, holds each window's Dirichlet mask by
// Spec.Index.
//
// Parallelism sits in three places, all drawing on the one
// internal/parallel pool. The round itself is pluggable (Config.Tiles):
// by default it runs on the flow's in-process device.Cluster, which
// runs up to min(devices, parallel.Workers()) device jobs at a time, each
// carrying up to ⌊parallel.Workers()/devices⌋ solves side by side as
// lanes (Local.pack), so a pool wider than the cluster is spent across
// tiles rather than inside one; with a shard coordinator installed it is
// partitioned over remote worker processes instead, and only
// overlap-halo strips travel between Schwarz stages. Inside each solve,
// the litho evaluations fan their kernels and transforms out over
// whatever helpers the lanes leave free. And the flow side between
// rounds — every window's crop and restriction before the round, every
// lift after it — is one parallel section each, gated by
// parallel.SweepLimit; it stays off the device jobs, so it is never
// charged to the virtual clock. put alone runs serially and sees the
// solutions in window order (refine's in-place blends, dropout's
// bookkeeping and the assembly slots depend on that order), so the
// result is bit-identical at any pool width or shard count.
//
// Restricted (scale > 1) solves keep the uncached, unbatched dispatch
// of TileRequest.Bare; every full-resolution window is content-addressed.
func (c *Config) sweep(cl *device.Cluster, m, target *grid.Mat, size, scale int, wins []tile.Spec, params opt.Params, freeze []*grid.Mat, put func(tile.Spec, *grid.Mat)) error {
	solved := size / scale
	limit := parallel.SweepLimit(len(wins) * size * size)
	reqs := make([]TileRequest, len(wins))
	parallel.Do(len(wins), limit, func(i int) {
		w := wins[i]
		req := TileRequest{
			Index:  w.Index,
			Pixels: solved * solved, // the restricted working set
			Target: target.CropDownsample(w.Y0, w.X0, size, size, scale),
			Init:   m.CropDownsample(w.Y0, w.X0, size, size, scale),
			Params: params,
			Bare:   scale > 1,
		}
		if freeze != nil {
			req.Params.Freeze = freeze[w.Index]
		}
		reqs[i] = req
	})
	sols, err := c.backend(cl).SolveTiles(c.ctx(), reqs)
	if err != nil {
		return err
	}
	if scale > 1 {
		parallel.Do(len(wins), limit, func(i int) { sols[i] = sols[i].UpsampleBilinear(scale) })
	}
	for i, w := range wins {
		put(w, sols[i])
	}
	return nil
}

// rasGrid is the tile grid of RAS rounds s·TileSize wide: its
// partition and hard Eq. (6) weights. A flow builds each grid once per
// run and hands it to every round on it.
type rasGrid struct {
	s int
	p *tile.Partition
	w []*grid.Mat
}

// rasGrid builds the grid of scale s.
func (c *Config) rasGrid(s int) (*rasGrid, error) {
	p, err := tile.Part(c.ClipSize, c.ClipSize, s*c.TileSize, s*c.Margin)
	if err != nil {
		return nil, fmt.Errorf("core: grid s=%d: %w", s, err)
	}
	w, err := p.Weights(0)
	if err != nil {
		return nil, err
	}
	return &rasGrid{s: s, p: p, w: w}, nil
}

// ras is one restricted additive Schwarz round (Eq. 6) on grid g: every
// tile is solved from m for iters iterations and assembled with the hard
// RAS weights. For g.s > 1 it is one coarse grid of Algorithm 1 (lines
// 8-12): tiles are downsampled by s so they fit on one device and the
// solutions are lifted back bilinearly. s = 1 is the divide-and-conquer
// solve of the fine partition.
func (c *Config) ras(cl *device.Cluster, g *rasGrid, m, target *grid.Mat, iters int) (*grid.Mat, error) {
	params := opt.Params{Iters: iters, LR: c.LR, Stretch: g.s, PVWeight: c.PVWeight}
	tiles := make([]*grid.Mat, len(g.p.Tiles))
	err := c.sweep(cl, m, target, g.p.Tile, g.s, g.p.Tiles, params, nil, func(spec tile.Spec, u *grid.Mat) {
		tiles[spec.Index] = u
	})
	if err != nil {
		return nil, err
	}
	return g.p.Assemble(tiles, g.w), nil
}

// solveRAS is ras on a grid built for this one round.
func (c *Config) solveRAS(cl *device.Cluster, m, target *grid.Mat, s, iters int) (*grid.Mat, error) {
	g, err := c.rasGrid(s)
	if err != nil {
		return nil, err
	}
	return c.ras(cl, g, m, target, iters)
}

// checkTarget validates the target geometry shared by every flow.
func (c *Config) checkTarget(target *grid.Mat) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if target.H != c.ClipSize || target.W != c.ClipSize {
		return fmt.Errorf("core: target %dx%d does not match clip %d", target.H, target.W, c.ClipSize)
	}
	return nil
}

// run is the shell every flow ends in: it runs stages on the engine from
// init, charges the device time the run took as the TAT, and evaluates
// the final mask against target on the stitch lines.
func (c *Config) run(name string, cl *device.Cluster, stages []pipeline.Stage, init, target *grid.Mat, lines []tile.StitchLine) (*Result, error) {
	simStart := c.simElapsed(cl)
	m, timeline, err := c.engine(name, stages).Run(init)
	if err != nil {
		return nil, err
	}
	tat := c.simElapsed(cl) - simStart
	return c.evaluate(name, m, target, lines, tat, cl, timeline), nil
}

// MultigridSchwarz runs the paper's full flow on one target clip:
// Algorithm 1 coarse grids, the staged fine-grid modified additive
// Schwarz of Section 3.3 with Eq. (14) weighted assembly, and the
// multi-colour multiplicative refine of Section 3.4.
//
// The flow is declared as a stage pipeline — every coarse level, fine
// Schwarz stage and refine sweep is one engine stage — so checkpoint,
// resume, progress, cancellation and stage timing all come from
// internal/pipeline.
func MultigridSchwarz(cfg Config, target *grid.Mat) (*Result, error) {
	c := &cfg
	if err := c.checkTarget(target); err != nil {
		return nil, err
	}
	cl := c.cluster()

	// Coarse grids: s = s_max, s_max/2, ..., 2. Stitch errors are not
	// addressed here (line 12 uses the plain Eq. (6) assembly); the
	// fine grid fixes them.
	levels := 0
	for s := cfg.CoarseScale; s >= 2; s /= 2 {
		levels++
	}

	stages := make([]pipeline.Stage, 0, levels+cfg.FineStages+cfg.RefineIters)
	level := 0
	for s := cfg.CoarseScale; s >= 2; s /= 2 {
		level++
		lvl := level
		stages = append(stages, pipeline.Stage{
			Name: "coarse", Iter: lvl, Total: levels,
			Run: func(_ context.Context, m *grid.Mat) (*grid.Mat, error) {
				m, err := c.solveRAS(cl, m, target, s, max(1, cfg.CoarseIters/levels))
				if err != nil {
					return nil, err
				}
				// Hand a manufacturable (binary) mask to the next grid: the
				// bilinear lift leaves gray, wobbly edges that the fine solver
				// would otherwise spend its whole budget re-sharpening.
				if r := cfg.CoarseClean; r > 0 {
					return filter.Clean(m, 0.5, r), nil
				}
				return m.BinarizeInPlace(0.5), nil
			},
		})
	}

	// Fine grid: staged modified additive Schwarz with weighted
	// smoothing assembly (Eq. 14). Tiles are re-cropped from the
	// assembled layout between stages so margins see their neighbours'
	// latest cores (Eq. 11).
	p, err := tile.Part(cfg.ClipSize, cfg.ClipSize, cfg.TileSize, cfg.Margin)
	if err != nil {
		return nil, err
	}
	weights, err := p.Weights(cfg.BlendWidth)
	if err != nil {
		return nil, err
	}
	// The Eq. (11) Dirichlet masks: each tile may update its core plus
	// half the blend band; beyond that it holds the neighbours' data.
	freeze := p.FreezeMasks(cfg.BlendWidth / 2)

	// Two-level Schwarz bookkeeping. The coarse-correct stages slot
	// between consecutive fine stages; the dropout state persists
	// across fine stages through these closure variables (it is not
	// checkpointed, so a resume between fine stages is refused — see
	// ErrResumeDropout).
	correctTotal := 0
	if cfg.CoarseCorrect && cfg.FineStages > 1 {
		correctTotal = cfg.FineStages - 1
	}
	var (
		prevSol   = make([]*grid.Mat, len(p.Tiles)) // last fine solution per tile
		converged = make([]bool, len(p.Tiles))

		correctGrid *rasGrid // the coarse-correct stages' grid, built by the first

		tilesConverged, solvesSkipped, corrections int
	)
	// Convergence detection on a solved tile: a per-pixel RMS change
	// of at most DropTol against its previous fine solution retires it.
	// Decisions are a pure function of the (deterministic) solutions,
	// so any backend at any parallelism drops the same tiles.
	observe := func(i int, u *grid.Mat) {
		if cfg.DropTol <= 0 {
			return
		}
		if prev := prevSol[i]; prev != nil {
			rms := math.Sqrt(u.L2Diff(prev) / float64(p.Tile*p.Tile))
			if rms <= cfg.DropTol {
				converged[i] = true
				tilesConverged++
			}
		}
		prevSol[i] = u
	}

	perStage := cfg.FineIters / cfg.FineStages
	extra := cfg.FineIters - perStage*cfg.FineStages
	// The engine stages, 1-based, of the first and the last fine stage.
	firstFine, lastFine := len(stages)+1, 0
	for stage := 0; stage < cfg.FineStages; stage++ {
		iters := perStage
		if stage == 0 {
			iters += extra
		}
		stages = append(stages, pipeline.Stage{
			Name: "fine", Iter: stage + 1, Total: cfg.FineStages,
			Run: func(_ context.Context, m *grid.Mat) (*grid.Mat, error) {
				// Dropout filters the window list: converged tiles are not
				// dispatched (none converge while DropTol is 0).
				live := make([]tile.Spec, 0, len(p.Tiles))
				for _, spec := range p.Tiles {
					if !converged[spec.Index] {
						live = append(live, spec)
					}
				}
				solvesSkipped += len(p.Tiles) - len(live)
				if len(live) == 0 {
					// Every tile is converged: the partition-of-unity
					// assembly of unmodified crops reproduces m exactly,
					// so the stage is a no-op.
					return m, nil
				}
				params := opt.Params{Iters: iters, LR: cfg.LR, Stretch: 1, PVWeight: cfg.PVWeight}
				tiles := make([]*grid.Mat, len(p.Tiles))
				err := c.sweep(cl, m, target, p.Tile, 1, live, params, freeze, func(spec tile.Spec, u *grid.Mat) {
					tiles[spec.Index] = u
					observe(spec.Index, u)
				})
				if err != nil {
					return nil, err
				}
				// Dropped tiles contribute their current assembled state:
				// cropping m is the identity update, which the weights
				// reproduce exactly over the dropped regions.
				for i, spec := range p.Tiles {
					if tiles[i] == nil {
						tiles[i] = m.Crop(spec.Y0, spec.X0, p.Tile, p.Tile)
					}
				}
				return p.Assemble(tiles, weights), nil
			},
		})
		lastFine = len(stages)
		if correctTotal > 0 && stage < cfg.FineStages-1 {
			stages = append(stages, pipeline.Stage{
				Name: "coarse-correct", Iter: stage + 1, Total: correctTotal,
				Run: func(_ context.Context, m *grid.Mat) (*grid.Mat, error) {
					if correctGrid == nil {
						g, err := c.rasGrid(c.coarseCorrectScale())
						if err != nil {
							return nil, err
						}
						correctGrid = g
					}
					out, err := c.coarseCorrect(cl, correctGrid, m, target)
					if err != nil {
						return nil, err
					}
					corrections++
					return out, nil
				},
			})
		}
	}
	if r := cfg.Resume; r != nil && cfg.DropTol > 0 && r.Stage >= firstFine && r.Stage < lastFine {
		return nil, fmt.Errorf("%w: checkpoint after engine stage %d, fine stages %d..%d", ErrResumeDropout, r.Stage, firstFine, lastFine)
	}

	// Refine: multi-colour multiplicative Schwarz at the small learning
	// rate refineLR. Same-colour tiles never overlap, so they run in
	// parallel; colours run sequentially so each colour sees the previous
	// colours' updates.
	var colors [][]tile.Spec
	for _, group := range p.Colors() {
		specs := make([]tile.Spec, len(group))
		for j, i := range group {
			specs[j] = p.Tiles[i]
		}
		colors = append(colors, specs)
	}
	for it := 0; it < cfg.RefineIters; it++ {
		stages = append(stages, pipeline.Stage{
			Name: "refine", Iter: it + 1, Total: cfg.RefineIters,
			Run: func(_ context.Context, m *grid.Mat) (*grid.Mat, error) {
				params := opt.Params{Iters: cfg.RefineVisitIters, LR: refineLR, Stretch: 1, PVWeight: cfg.PVWeight}
				for _, group := range colors {
					err := c.sweep(cl, m, target, p.Tile, 1, group, params, freeze, func(spec tile.Spec, u *grid.Mat) {
						p.BlendInto(m, u, weights[spec.Index], spec.Index)
					})
					if err != nil {
						return nil, err
					}
				}
				return m, nil
			},
		})
	}

	// Algorithm 1, line 4: M ← Z_t.
	res, err := c.run("multigrid-schwarz", cl, stages, target.Clone(), target, p.StitchLines())
	if err != nil {
		return nil, err
	}
	res.TilesConverged = tilesConverged
	res.TileSolvesSkipped = solvesSkipped
	res.CoarseCorrections = corrections
	return res, nil
}

// coarseCorrect applies one two-level Schwarz correction to the
// assembled layout m: restrict m to the correction grid, run a short
// coarse ILT step against the restricted target, lift the solution
// back, and add the difference against m's own restrict-then-lift
// round trip — an FAS-style correction, so a solver that returns its
// initialisation unchanged yields δ = 0 and the stage is an exact
// no-op. The correction supplies the global coupling one-level Schwarz
// lacks: residual components spanning many tiles are fixed in one
// coarse solve instead of leaking across tile borders one overlap per
// stage (SNIPPETS.md Snippet 1).
func (c *Config) coarseCorrect(cl *device.Cluster, g *rasGrid, m, target *grid.Mat) (*grid.Mat, error) {
	iters := c.CoarseCorrectIters
	if iters < 1 {
		iters = max(1, c.CoarseIters/4)
	}
	solved, err := c.ras(cl, g, m, target, iters)
	if err != nil {
		return nil, err
	}
	// The FAS base state: m itself through the same restriction and
	// lift, so δ measures only what the coarse solver changed, not the
	// resampling blur.
	pc, s := g.p, g.s
	base := make([]*grid.Mat, len(pc.Tiles))
	parallel.Do(len(pc.Tiles), parallel.SweepLimit(len(pc.Tiles)*pc.Tile*pc.Tile), func(i int) {
		spec := pc.Tiles[i]
		base[i] = m.CropDownsample(spec.Y0, spec.X0, pc.Tile, pc.Tile, s).UpsampleBilinear(s)
	})
	delta := solved.Sub(pc.Assemble(base, g.w))
	return m.Clone().AddScaled(delta, 1).Clamp(0, 1), nil
}

// DivideAndConquer runs the traditional baseline: every tile optimised
// independently to its full budget, assembled once with the hard RAS
// operator of Eq. (6). Margins never see their neighbours, which is
// what produces the Fig. 1/Fig. 3 stitch discontinuities. The pipeline
// has a single "solve" stage; a valid checkpoint carries the fully
// assembled mask, so resuming skips straight to evaluation.
func DivideAndConquer(cfg Config, target *grid.Mat) (*Result, error) {
	c := &cfg
	if err := c.checkTarget(target); err != nil {
		return nil, err
	}
	cl := c.cluster()
	p, err := tile.Part(cfg.ClipSize, cfg.ClipSize, cfg.TileSize, cfg.Margin)
	if err != nil {
		return nil, err
	}
	stages := []pipeline.Stage{{
		Name: "solve", Iter: 1, Total: 1,
		Run: func(_ context.Context, _ *grid.Mat) (*grid.Mat, error) {
			return c.solveRAS(cl, target, target, 1, cfg.BaselineIters)
		},
	}}
	res, err := c.run("divide-and-conquer", cl, stages, target, target, p.StitchLines())
	if err != nil {
		return nil, err
	}
	res.Method += "/" + c.solver().Name()
	return res, nil
}

// FullChip optimises the whole clip at once (no partitioning) — the
// Table 1 quality reference. Like the paper we charge no communication
// overhead: the single job runs with unlimited memory regardless of
// the cluster's per-device capacity ("the runtime ... is calculated
// under ideal conditions"). Running on the engine makes even this
// single-stage flow checkpoint/resumable: a kill after the solve
// restarts at evaluation instead of repaying the whole budget.
func FullChip(cfg Config, target *grid.Mat) (*Result, error) {
	c := &cfg
	if err := c.checkTarget(target); err != nil {
		return nil, err
	}
	cl := c.cluster()
	// Stitch loss is still measured on the tile geometry's lines, as
	// the paper does (full-chip has a non-zero baseline from ordinary
	// contour wiggle crossing those positions).
	p, err := tile.Part(cfg.ClipSize, cfg.ClipSize, cfg.TileSize, cfg.Margin)
	if err != nil {
		return nil, err
	}
	stages := []pipeline.Stage{{
		Name: "solve", Iter: 1, Total: 1,
		Run: func(_ context.Context, _ *grid.Mat) (*grid.Mat, error) {
			// One ideal request on the local cluster, whatever backend the
			// tile flows use: the paper charges full-chip ILT no
			// communication overhead and assumes a device large enough to
			// hold the clip, so the job bypasses the per-device memory gate
			// by construction (Pixels = 0 always fits), and it is never
			// cached or batched.
			sols, err := (&Local{Cluster: cl, Solver: c.solver()}).SolveTiles(c.ctx(), []TileRequest{{
				Target: target, Init: target,
				Params: opt.Params{Iters: cfg.BaselineIters, LR: cfg.LR, Stretch: 1, PVWeight: cfg.PVWeight},
			}})
			if err != nil {
				return nil, err
			}
			return sols[0], nil
		},
	}}
	return c.run("full-chip", cl, stages, target, target, p.StitchLines())
}
