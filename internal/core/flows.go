package core

import (
	"context"
	"fmt"
	"math"

	"mgsilt/internal/device"
	"mgsilt/internal/filter"
	"mgsilt/internal/grid"
	"mgsilt/internal/opt"
	"mgsilt/internal/pipeline"
	"mgsilt/internal/tile"
)

// solveTiles optimises the selected tiles of the current layout m
// against target and returns the per-tile solutions (indexed like
// p.Tiles; unselected entries are nil). Each tile is cropped from the
// *current* layout, so margins carry the neighbours' latest values —
// the modified-Schwarz boundary condition of Eq. (11).
//
// The fan-out itself is pluggable (Config.Tiles): by default the batch
// runs on the flow's in-process device.Cluster, where parallelism is
// two-level and shares one budget — the cluster dispatches up to
// min(devices, parallel.Workers()) tile solves concurrently and each
// solve's litho evaluations fan their per-kernel convolutions out over
// the same internal/parallel pool. With a shard coordinator installed,
// the batch is partitioned over remote worker processes instead, and
// only overlap-halo strips travel between Schwarz stages. Either way
// the flow assembles the returned solutions itself, in tile-index
// order, so the result is bit-identical at any parallelism or shard
// count.
func (c *Config) solveTiles(cl *device.Cluster, p *tile.Partition, m, target *grid.Mat, params opt.Params, indices []int, freeze []*grid.Mat) ([]*grid.Mat, error) {
	if indices == nil {
		indices = make([]int, len(p.Tiles))
		for i := range indices {
			indices[i] = i
		}
	}
	reqs := make([]TileRequest, 0, len(indices))
	for _, idx := range indices {
		s := p.Tiles[idx]
		tp := params
		if freeze != nil {
			tp.Freeze = freeze[idx]
		}
		reqs = append(reqs, TileRequest{
			Index:  s.Index,
			Pixels: p.Tile * p.Tile,
			Target: target.Crop(s.Y0, s.X0, p.Tile, p.Tile),
			Init:   m.Crop(s.Y0, s.X0, p.Tile, p.Tile),
			Params: tp,
		})
	}
	sols, err := c.backend(cl).SolveTiles(c.ctx(), reqs)
	if err != nil {
		return nil, err
	}
	out := make([]*grid.Mat, len(p.Tiles))
	for i, req := range reqs {
		out[req.Index] = sols[i]
	}
	return out, nil
}

// solveCoarseTiles is solveTiles for one coarse grid of Algorithm 1:
// tiles of size s·TileSize are downsampled by s before optimisation
// (lines 8-10) so they fit on one device, and the solutions are lifted
// back to the fine grid bilinearly. The lift happens on the flow side,
// so a remote backend ships only the downsampled solves.
func (c *Config) solveCoarseTiles(cl *device.Cluster, p *tile.Partition, m, target *grid.Mat, s int, params opt.Params) ([]*grid.Mat, error) {
	solvedSize := p.Tile / s
	reqs := make([]TileRequest, 0, len(p.Tiles))
	for _, spec := range p.Tiles {
		reqs = append(reqs, TileRequest{
			Index:  spec.Index,
			Pixels: solvedSize * solvedSize, // the downsampled working set
			Target: target.Crop(spec.Y0, spec.X0, p.Tile, p.Tile).Downsample(s),
			Init:   m.Crop(spec.Y0, spec.X0, p.Tile, p.Tile).Downsample(s),
			Params: params,
			Bare:   true,
		})
	}
	sols, err := c.backend(cl).SolveTiles(c.ctx(), reqs)
	if err != nil {
		return nil, err
	}
	out := make([]*grid.Mat, len(p.Tiles))
	for i, req := range reqs {
		out[req.Index] = sols[i].UpsampleBilinear(s)
	}
	return out, nil
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

// dcSolve is the divide-and-conquer solve+assembly shared by the
// DivideAndConquer flow and StitchAndHeal's inner pass: every tile
// optimised independently to its full budget, assembled once with the
// hard RAS operator of Eq. (6).
func (c *Config) dcSolve(cl *device.Cluster, p *tile.Partition, target *grid.Mat) (*grid.Mat, error) {
	params := opt.Params{Iters: c.BaselineIters, LR: c.LR, Stretch: 1, PVWeight: c.PVWeight}
	tiles, err := c.solveTiles(cl, p, target, target, params, nil, nil)
	if err != nil {
		return nil, err
	}
	w, err := p.Weights(0)
	if err != nil {
		return nil, err
	}
	return p.Assemble(tiles, w), nil
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
func MultigridSchwarz(cfg Config, target *grid.Mat) (res *Result, err error) {
	defer pipeline.CatchFault(&err)
	c := &cfg
	if err := c.checkTarget(target); err != nil {
		return nil, err
	}
	cl := c.cluster()
	simStart := c.simElapsed(cl)

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
				coarseTile := s * cfg.TileSize
				p, err := tile.Part(cfg.ClipSize, cfg.ClipSize, coarseTile, s*cfg.Margin)
				if err != nil {
					return nil, fmt.Errorf("core: coarse grid s=%d: %w", s, err)
				}
				iters := cfg.CoarseIters / levels
				if iters < 1 {
					iters = 1
				}
				params := opt.Params{Iters: iters, LR: cfg.LR, Stretch: s, PVWeight: cfg.PVWeight}
				tiles, err := c.solveCoarseTiles(cl, p, m, target, s, params)
				if err != nil {
					return nil, err
				}
				w, err := p.Weights(0) // Eq. (6)
				if err != nil {
					return nil, err
				}
				m = p.Assemble(tiles, w)
				// Hand a manufacturable (binary) mask to the next grid: the
				// bilinear lift leaves gray, wobbly edges that the fine solver
				// would otherwise spend its whole budget re-sharpening.
				m.BinarizeInPlace(0.5)
				if r := cfg.CoarseClean; r > 0 {
					m = filter.Close(filter.Open(m, r), r)
				}
				return m, nil
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
	// checkpointed — see Config.DropTol).
	correctTotal := 0
	if cfg.CoarseCorrect && cfg.FineStages > 1 {
		correctTotal = cfg.FineStages - 1
	}
	dropWindow := cfg.DropWindow
	if dropWindow < 1 {
		dropWindow = 1
	}
	var (
		prevSol    []*grid.Mat // last fine solution per tile
		belowCount []int
		converged  []bool

		tilesConverged, solvesSkipped, corrections int
	)
	if cfg.DropTol > 0 {
		prevSol = make([]*grid.Mat, len(p.Tiles))
		belowCount = make([]int, len(p.Tiles))
		converged = make([]bool, len(p.Tiles))
	}

	perStage := cfg.FineIters / cfg.FineStages
	extra := cfg.FineIters - perStage*cfg.FineStages
	for stage := 0; stage < cfg.FineStages; stage++ {
		iters := perStage
		if stage == 0 {
			iters += extra
		}
		stages = append(stages, pipeline.Stage{
			Name: "fine", Iter: stage + 1, Total: cfg.FineStages,
			Run: func(_ context.Context, m *grid.Mat) (*grid.Mat, error) {
				params := opt.Params{Iters: iters, LR: cfg.LR, Stretch: 1, PVWeight: cfg.PVWeight}
				if cfg.DropTol <= 0 {
					tiles, err := c.solveTiles(cl, p, m, target, params, nil, freeze)
					if err != nil {
						return nil, err
					}
					return p.Assemble(tiles, weights), nil
				}

				// Dropout: only non-converged tiles are dispatched.
				indices := make([]int, 0, len(p.Tiles))
				for i := range p.Tiles {
					if !converged[i] {
						indices = append(indices, i)
					}
				}
				solvesSkipped += len(p.Tiles) - len(indices)
				if len(indices) == 0 {
					// Every tile is converged: the partition-of-unity
					// assembly of unmodified crops reproduces m exactly,
					// so the stage is a no-op.
					return m, nil
				}
				tiles, err := c.solveTiles(cl, p, m, target, params, indices, freeze)
				if err != nil {
					return nil, err
				}
				// Convergence detection on the solved tiles: per-pixel
				// RMS change against the previous fine solution, DropTol
				// held for DropWindow consecutive stages. Decisions are a
				// pure function of the (deterministic) solutions, so any
				// backend at any parallelism drops the same tiles.
				for _, idx := range indices {
					if prev := prevSol[idx]; prev != nil {
						rms := math.Sqrt(tiles[idx].L2Diff(prev) / float64(p.Tile*p.Tile))
						if rms <= cfg.DropTol {
							belowCount[idx]++
							if belowCount[idx] >= dropWindow {
								converged[idx] = true
								tilesConverged++
							}
						} else {
							belowCount[idx] = 0
						}
					}
					prevSol[idx] = tiles[idx]
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
		if correctTotal > 0 && stage < cfg.FineStages-1 {
			stages = append(stages, pipeline.Stage{
				Name: "coarse-correct", Iter: stage + 1, Total: correctTotal,
				Run: func(_ context.Context, m *grid.Mat) (*grid.Mat, error) {
					out, err := c.coarseCorrect(cl, m, target)
					if err != nil {
						return nil, err
					}
					corrections++
					return out, nil
				},
			})
		}
	}

	// Refine: multi-colour multiplicative Schwarz. Same-colour tiles
	// never overlap, so they run in parallel; colours run sequentially
	// so each colour sees the previous colours' updates.
	colors := p.Colors()
	for it := 0; it < cfg.RefineIters; it++ {
		stages = append(stages, pipeline.Stage{
			Name: "refine", Iter: it + 1, Total: cfg.RefineIters,
			Run: func(_ context.Context, m *grid.Mat) (*grid.Mat, error) {
				for _, group := range colors {
					params := opt.Params{Iters: cfg.RefineVisitIters, LR: cfg.RefineLR, Stretch: 1, PVWeight: cfg.PVWeight}
					sols, err := c.solveTiles(cl, p, m, target, params, group, freeze)
					if err != nil {
						return nil, err
					}
					for _, idx := range group {
						p.BlendInto(m, sols[idx], weights[idx], idx)
					}
				}
				return m, nil
			},
		})
	}

	// Algorithm 1, line 4: M ← Z_t.
	m, timeline, err := c.engine("multigrid-schwarz", stages).Run(target.Clone())
	if err != nil {
		return nil, err
	}
	tat := c.simElapsed(cl) - simStart
	res = c.evaluate("multigrid-schwarz", m, target, p.StitchLines(), tat, cl, timeline)
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
func (c *Config) coarseCorrect(cl *device.Cluster, m, target *grid.Mat) (*grid.Mat, error) {
	s := c.coarseCorrectScale()
	pc, err := tile.Part(c.ClipSize, c.ClipSize, s*c.TileSize, s*c.Margin)
	if err != nil {
		return nil, fmt.Errorf("core: coarse-correct grid s=%d: %w", s, err)
	}
	iters := c.CoarseCorrectIters
	if iters < 1 {
		iters = c.CoarseIters / 4
		if iters < 1 {
			iters = 1
		}
	}
	params := opt.Params{Iters: iters, LR: c.LR, Stretch: s, PVWeight: c.PVWeight}
	sols, err := c.solveCoarseTiles(cl, pc, m, target, s, params)
	if err != nil {
		return nil, err
	}
	w, err := pc.Weights(0)
	if err != nil {
		return nil, err
	}
	solved := pc.Assemble(sols, w)
	// The FAS base state: m itself through the same restriction and
	// lift, so δ measures only what the coarse solver changed, not the
	// resampling blur.
	base := make([]*grid.Mat, len(pc.Tiles))
	for i, spec := range pc.Tiles {
		base[i] = m.Crop(spec.Y0, spec.X0, pc.Tile, pc.Tile).Downsample(s).UpsampleBilinear(s)
	}
	delta := solved.Sub(pc.Assemble(base, w))
	alpha := c.CoarseCorrectBlend
	if alpha == 0 {
		alpha = 1
	}
	return m.Clone().AddScaled(delta, alpha).Clamp(0, 1), nil
}

// DivideAndConquer runs the traditional baseline: every tile optimised
// independently to its full budget, assembled once with the hard RAS
// operator of Eq. (6). Margins never see their neighbours, which is
// what produces the Fig. 1/Fig. 3 stitch discontinuities. The pipeline
// has a single "solve" stage; a valid checkpoint carries the fully
// assembled mask, so resuming skips straight to evaluation.
func DivideAndConquer(cfg Config, target *grid.Mat) (res *Result, err error) {
	defer pipeline.CatchFault(&err)
	c := &cfg
	if err := c.checkTarget(target); err != nil {
		return nil, err
	}
	cl := c.cluster()
	simStart := c.simElapsed(cl)
	p, err := tile.Part(cfg.ClipSize, cfg.ClipSize, cfg.TileSize, cfg.Margin)
	if err != nil {
		return nil, err
	}
	stages := []pipeline.Stage{{
		Name: "solve", Iter: 1, Total: 1,
		Run: func(_ context.Context, _ *grid.Mat) (*grid.Mat, error) {
			return c.dcSolve(cl, p, target)
		},
	}}
	m, timeline, err := c.engine("divide-and-conquer", stages).Run(target)
	if err != nil {
		return nil, err
	}
	tat := c.simElapsed(cl) - simStart
	name := "divide-and-conquer/" + c.solver().Name()
	return c.evaluate(name, m, target, p.StitchLines(), tat, cl, timeline), nil
}

// FullChip optimises the whole clip at once (no partitioning) — the
// Table 1 quality reference. Like the paper we charge no communication
// overhead: the single job runs with unlimited memory regardless of
// the cluster's per-device capacity ("the runtime ... is calculated
// under ideal conditions"). Running on the engine makes even this
// single-stage flow checkpoint/resumable: a kill after the solve
// restarts at evaluation instead of repaying the whole budget.
func FullChip(cfg Config, target *grid.Mat) (res *Result, err error) {
	defer pipeline.CatchFault(&err)
	c := &cfg
	if err := c.checkTarget(target); err != nil {
		return nil, err
	}
	cl := c.cluster()
	simStart := c.simElapsed(cl)
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
	m, timeline, err := c.engine("full-chip", stages).Run(target)
	if err != nil {
		return nil, err
	}
	tat := c.simElapsed(cl) - simStart
	// Stitch loss is still measured on the tile geometry's lines, as
	// the paper does (full-chip has a non-zero baseline from ordinary
	// contour wiggle crossing those positions).
	p, err := tile.Part(cfg.ClipSize, cfg.ClipSize, cfg.TileSize, cfg.Margin)
	if err != nil {
		return nil, err
	}
	return c.evaluate("full-chip", m, target, p.StitchLines(), tat, cl, timeline), nil
}
