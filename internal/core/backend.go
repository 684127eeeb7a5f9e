package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mgsilt/internal/cache"
	"mgsilt/internal/device"
	"mgsilt/internal/grid"
	"mgsilt/internal/opt"
)

// TileRequest is one tile solve dispatched through a TileBackend: the
// tile-local target and starting mask plus the solve parameters (with
// the tile's Dirichlet freeze mask already installed in Params.Freeze).
// Requests in one SolveTiles batch are independent — the backend may
// execute them in any order and with any placement, because the flow
// assembles the returned solutions itself in tile-index order; that is
// what keeps the result bit-identical at any backend parallelism or
// shard count.
type TileRequest struct {
	// Index is the tile's index in its partition, used for placement
	// affinity and error reports.
	Index int
	// Pixels is the device working-set hint (the downsampled size for
	// coarse-grid tiles), checked against device memory and charged to
	// the transfer model exactly like device.Job.Pixels.
	Pixels int
	Target *grid.Mat
	Init   *grid.Mat
	// Params are the solve knobs. Params.Ctx is overwritten by the
	// backend with each attempt's context.
	Params opt.Params
	// Bare disables the content-addressed cache and the cross-job batch
	// scheduler for this request. Coarse-grid solves keep their
	// historical direct dispatch path.
	Bare bool
}

// TileBackend executes one barrier-synchronised batch of tile solves —
// the pluggable fan-out seam of the stage-pipeline flows. Two
// implementations exist: the in-process device.Cluster path (the
// default, with content-addressed caching and cross-job batching) and
// the remote shard coordinator of internal/shard, which partitions the
// batch over worker processes and exchanges only overlap-halo strips
// between Schwarz stages.
//
// SolveTiles returns one solution per request, aligned with reqs. The
// contract inherited from the flows is bit-identity: a tile solution
// must be the deterministic pure function of (Target, Init, Params)
// that opt solvers implement, so any backend at any parallelism
// produces byte-identical flow output.
type TileBackend interface {
	SolveTiles(ctx context.Context, reqs []TileRequest) ([]*grid.Mat, error)
}

// BackendStats is optionally implemented by backends that keep their
// own virtual-clock and cluster accounting (the shard coordinator
// aggregates its workers' simulated timelines). Flows fold these
// numbers into Result.TAT and Result.Stats alongside the local
// cluster's.
type BackendStats interface {
	// SimElapsed is the backend's virtual clock: the sum over batches
	// of the slowest shard's simulated makespan.
	SimElapsed() time.Duration
	// ClusterStats aggregates the remote device accounting.
	ClusterStats() device.Stats
}

// backend returns the configured TileBackend, defaulting to the
// in-process cluster path.
func (c *Config) backend(cl *device.Cluster) TileBackend {
	if c.Tiles != nil {
		return c.Tiles
	}
	return &clusterBackend{cfg: c, cl: cl}
}

// simElapsed returns the virtual clock a flow's tile work is charged
// to: the local cluster's plus, when a remote backend with accounting
// is installed, the backend's.
func (c *Config) simElapsed(cl *device.Cluster) time.Duration {
	t := cl.Stats().SimElapsed
	if c.Tiles != nil {
		if bs, ok := c.Tiles.(BackendStats); ok {
			t += bs.SimElapsed()
		}
	}
	return t
}

// runStats merges the local cluster accounting with the remote
// backend's, when one is installed.
func (c *Config) runStats(cl *device.Cluster) device.Stats {
	s := cl.Stats()
	if c.Tiles != nil {
		if bs, ok := c.Tiles.(BackendStats); ok {
			r := bs.ClusterStats()
			s.Jobs += r.Jobs
			s.TotalBusy += r.TotalBusy
			s.Transfer += r.Transfer
			s.SimElapsed += r.SimElapsed
			s.Retries += r.Retries
			s.Quarantined += r.Quarantined
			if r.MaxBusy > s.MaxBusy {
				s.MaxBusy = r.MaxBusy
			}
		}
	}
	return s
}

// clusterBackend is the in-process TileBackend: one device.Job per
// request on the flow's device.Cluster, with the content-addressed
// tile cache short-circuiting repeated solves before dispatch and the
// cross-job batch scheduler coalescing cache misses into lockstep
// batches.
type clusterBackend struct {
	cfg *Config
	cl  *device.Cluster
}

func (b *clusterBackend) SolveTiles(ctx context.Context, reqs []TileRequest) ([]*grid.Mat, error) {
	c := b.cfg
	solver := c.solver()

	// Content addressing and batching both require a configuration
	// fingerprint; solvers without one bypass the whole machinery.
	var optics, solverFP string
	if c.TileCache != nil || c.Batch != nil {
		if f, ok := solver.(opt.Fingerprinter); ok {
			optics = c.Sim.Fingerprint()
			solverFP = f.Fingerprint()
		}
	}
	tc := c.TileCache
	if solverFP == "" {
		tc = nil
	}
	batcher := c.Batch
	batchSolver, canBatch := solver.(opt.BatchSolver)
	if !canBatch || solverFP == "" {
		batcher = nil
	}
	classKey := optics + "|" + solverFP

	out := make([]*grid.Mat, len(reqs))
	var mu sync.Mutex
	jobs := make([]device.Job, 0, len(reqs))
	for i, req := range reqs {
		i, req := i, req
		tileParams := req.Params

		var key cache.Key
		useCache := false
		if tc != nil && !req.Bare {
			k, err := cache.KeyInput{
				Optics: optics, Solver: solverFP,
				Iters: tileParams.Iters, Stretch: tileParams.Stretch,
				LR: tileParams.LR, PVWeight: tileParams.PVWeight,
				Fidelity: tileParams.Fidelity,
				Target:   req.Target, Init: req.Init, Freeze: tileParams.Freeze,
			}.Key()
			if err == nil {
				key, useCache = k, true
				// Pre-dispatch short-circuit: a hit never becomes a device
				// job, so no virtual time is charged — cached tiles are
				// free on the TAT clock, exactly the repeated-work saving
				// the cache exists to realise.
				if u, ok := tc.Get(key); ok {
					out[i] = u
					continue
				}
			}
		}
		useBatch := batcher != nil && !req.Bare

		jobs = append(jobs, device.Job{
			Pixels: req.Pixels,
			Work: func(ctx context.Context, _ int) error {
				// The attempt context carries batch cancellation plus any
				// per-attempt retry deadline; the solver polls it between
				// iterations.
				tp := tileParams
				tp.Ctx = ctx
				solve := func() (*grid.Mat, error) {
					if useBatch {
						return batcher.Solve(classKey, batchSolver, req.Target, req.Init, tp)
					}
					return solver.Solve(req.Target, req.Init, tp)
				}
				var u *grid.Mat
				var err error
				if useCache {
					// Singleflight: concurrent identical misses (repeated
					// cells dispatched in one batch) solve once and share.
					u, err = tc.Do(key, solve)
				} else {
					u, err = solve()
				}
				if err != nil {
					return fmt.Errorf("core: tile %d: %w", req.Index, err)
				}
				mu.Lock()
				out[i] = u
				mu.Unlock()
				return nil
			},
		})
	}
	if err := b.cl.RunCtx(ctx, jobs); err != nil {
		return nil, err
	}
	return out, nil
}
