package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"mgsilt/internal/cache"
	"mgsilt/internal/device"
	"mgsilt/internal/grid"
	"mgsilt/internal/litho"
	"mgsilt/internal/opt"
	"mgsilt/internal/parallel"
	"mgsilt/internal/sched"
)

// TileRequest is one window of a Schwarz sweep dispatched through a
// TileBackend: the window-local (restricted) target and starting mask
// plus the solve parameters (with the window's Dirichlet freeze mask
// already installed in Params.Freeze). Requests in one SolveTiles batch
// are independent — the backend may execute them in any order and with
// any placement, because the sweep puts the returned solutions back
// itself in window order; that is what keeps the result bit-identical
// at any backend parallelism or shard count.
type TileRequest struct {
	// Index is the window's index in its partition (a healing window's
	// position along its line), used for placement affinity and error
	// reports.
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
	// Bare disables the content-addressed cache and lockstep batching
	// for this request: it runs as its own uncached device job. The
	// sweep sets it for restricted (coarse-grid) solves only.
	Bare bool
}

// TileBackend executes one barrier-synchronised round of tile solves —
// the pluggable fan-out seam of the flows' one Schwarz sweep. Two
// implementations exist: Local, the in-process device.Cluster path (the
// default, with content-addressed caching and lockstep batching), and
// the remote shard coordinator of internal/shard, which partitions the
// batch over worker processes — each solving its share through Local —
// and exchanges only overlap-halo strips between Schwarz stages.
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
	return &Local{Cluster: cl, Sim: c.Sim, Solver: c.solver(), Cache: c.TileCache, Batch: c.Batch}
}

// simElapsed returns the virtual clock a flow's tile work is charged
// to: the local cluster's plus, when a remote backend with accounting
// is installed, the backend's.
func (c *Config) simElapsed(cl *device.Cluster) time.Duration {
	t := cl.Stats().SimElapsed
	if bs, ok := c.Tiles.(BackendStats); ok {
		t += bs.SimElapsed()
	}
	return t
}

// runStats merges the local cluster accounting with the remote
// backend's, when one is installed.
func (c *Config) runStats(cl *device.Cluster) device.Stats {
	s := cl.Stats()
	if bs, ok := c.Tiles.(BackendStats); ok {
		s = s.Add(bs.ClusterStats())
	}
	return s
}

// Local is the in-process TileBackend and the one place a tile solve
// becomes a device job: the flows' default backend, FullChip's ideal
// job and the shard worker's batches all dispatch through it. It sees
// every request of a round, so it forms the round's device jobs itself:
// the content-addressed tile cache answers repeated solves before
// dispatch, identical misses collapse to one solve, the batch policy
// cuts the remaining misses into lockstep runs, and the runs are packed
// into device jobs of as many lanes as the pool width allows per device
// (see pack).
//
// The round's cache keys — a SHA-256 over each window's target, start
// and freeze mask — are computed first, in one parallel section; the
// lookups and claims then run serially in request order on those keys,
// so which request leads a key, the hit/miss/merged counters and the
// solves entered are the same at any pool width. So are the device jobs
// wherever a device gets one lane, that is on a pool narrower than twice
// the cluster. On a wider pool a device's job carries several runs side
// by side, so a round dispatches fewer jobs; every solution stays
// bit-identical, because a tile solve is the same at any fan-out.
type Local struct {
	Cluster *device.Cluster
	// Sim is the optics whose fingerprint enters cache keys and batch
	// classes; only read when Cache or Batch is set.
	Sim    *litho.Simulator
	Solver opt.Solver
	// Cache, when non-nil, content-addresses requests of a fingerprinted
	// solver; Batch, when non-nil, cuts a batch solver's misses into
	// lockstep runs. With both nil every request is a run of its own.
	Cache *cache.Cache
	Batch *sched.Batcher
}

func (b *Local) SolveTiles(ctx context.Context, reqs []TileRequest) ([]*grid.Mat, error) {
	// Content addressing and batching both require a configuration
	// fingerprint; solvers without one bypass the whole machinery.
	var optics, solverFP string
	if b.Cache != nil || b.Batch != nil {
		if f, ok := b.Solver.(opt.Fingerprinter); ok {
			optics = b.Sim.Fingerprint()
			solverFP = f.Fingerprint()
		}
	}
	tc := b.Cache
	if solverFP == "" {
		tc = nil
	}
	_, canBatch := b.Solver.(opt.BatchSolver)
	canBatch = canBatch && b.Batch != nil && solverFP != ""
	classKey := optics + "|" + solverFP

	out := make([]*grid.Mat, len(reqs))
	keys, keyed := b.keys(reqs, tc, optics, solverFP)
	var (
		todo    []int // requests this round dispatches, in order
		items   []sched.Item
		claims  []*cache.Flight // the keys this round leads …
		claimed []int           // … and their requests
		waiting []int           // misses another solve answers, taken through Do after the round
	)
	for i, req := range reqs {
		if keyed[i] {
			k := keys[i]
			// Pre-dispatch short-circuit: a hit never becomes a device
			// job, so no virtual time is charged — cached tiles are free
			// on the TAT clock, exactly the repeated-work saving the
			// cache exists to realise.
			if u, ok := tc.Get(k); ok {
				out[i] = u
				continue
			}
			// A miss is solved once: by this round if its first request
			// of the key claims it, else by whoever leads the key.
			fl := tc.Claim(k)
			if fl == nil {
				waiting = append(waiting, i)
				continue
			}
			claims, claimed = append(claims, fl), append(claimed, i)
		}
		todo = append(todo, i)
		items = append(items, sched.Item{
			Class:  sched.ClassOf(classKey, req.Init, req.Params),
			Solo:   req.Bare || !canBatch,
			Pixels: req.Pixels,
		})
	}

	jobs := b.pack(reqs, todo, items, b.Batch.Plan(items, b.Cluster.MemPixels()), out)

	// The round leads the keys it claimed. Their publication is deferred
	// past the dispatch, so a failed or panicking round still releases
	// every one, and it happens before this round waits on anyone else's.
	var runErr error
	cache.Lead(claims, func() ([]*grid.Mat, []error) {
		runErr = b.Cluster.RunCtx(ctx, jobs)
		ms, errs := make([]*grid.Mat, len(claimed)), make([]error, len(claimed))
		for j, i := range claimed {
			if ms[j] = out[i]; ms[j] == nil {
				errs[j] = fmt.Errorf("core: tile %d: not solved", reqs[i].Index)
			}
		}
		return ms, errs
	})
	if runErr != nil {
		return nil, runErr
	}
	for _, i := range waiting {
		// The solve runs only when the key's leader failed: then this
		// request dispatches its own device job.
		u, err := tc.Do(keys[i], func() (*grid.Mat, error) {
			err := b.Cluster.RunCtx(ctx, []device.Job{b.job(reqs, []lane{{members: []int{i}}}, out)})
			return out[i], err
		})
		if err != nil {
			return nil, err
		}
		out[i] = u
	}
	return out, nil
}

// keys content-addresses the round's cacheable requests in one parallel
// section: keyed[i] reports that keys[i] is request i's key. A key is a
// pure function of its request, so computing them all before the first
// lookup changes nothing the lookups decide — the caller still takes
// them in request order.
func (b *Local) keys(reqs []TileRequest, tc *cache.Cache, optics, solverFP string) ([]cache.Key, []bool) {
	keys, keyed := make([]cache.Key, len(reqs)), make([]bool, len(reqs))
	if tc == nil {
		return keys, keyed
	}
	elems := 0
	for _, req := range reqs {
		if !req.Bare && req.Target != nil {
			elems += len(req.Target.Data)
		}
	}
	parallel.Do(len(reqs), parallel.SweepLimit(elems), func(i int) {
		req := reqs[i]
		if req.Bare {
			return
		}
		p := req.Params
		k, err := cache.KeyInput{
			Optics: optics, Solver: solverFP,
			Iters: p.Iters, Stretch: p.Stretch, LR: p.LR, PVWeight: p.PVWeight,
			Target: req.Target, Init: req.Init, Freeze: p.Freeze,
		}.Key()
		keys[i], keyed[i] = k, err == nil
	})
	return keys, keyed
}

// lane is one run of a device job: a lone request, or a lockstep batch
// through the batch policy. Its members index the round's requests.
type lane struct {
	members []int
	batch   bool
}

// pack turns the round's planned runs into device jobs. Each device
// gets ⌊pool width / devices⌋ lanes: a job carries up to that many runs,
// in plan order, side by side, while their summed working set fits one
// device. A Bare run keeps a job of its own. With one lane — a pool
// narrower than twice the cluster — every run is its own job.
func (b *Local) pack(reqs []TileRequest, todo []int, items []sched.Item, runs [][]int, out []*grid.Mat) []device.Job {
	lanes := parallel.Workers() / b.Cluster.Devices()
	var (
		jobs   []device.Job
		open   []lane
		pixels int
	)
	flush := func() {
		if len(open) > 0 {
			jobs = append(jobs, b.job(reqs, open, out))
			open, pixels = nil, 0
		}
	}
	for _, run := range runs {
		l := lane{members: make([]int, len(run)), batch: !items[run[0]].Solo}
		px := 0
		for j, t := range run {
			l.members[j] = todo[t]
			px += items[t].Pixels
		}
		bare := reqs[l.members[0]].Bare
		if bare || len(open) >= lanes || !b.Cluster.Fits(pixels+px) {
			flush()
		}
		open, pixels = append(open, l), pixels+px
		if bare {
			flush()
		}
	}
	flush()
	return jobs
}

// job is the device job that solves its lanes' requests into out. The
// lanes run side by side in one parallel section, each on a goroutine of
// its own whose inner sections then find no free helper and stay
// serial; a lone lane runs on the dispatcher and fans out as it always
// has. The device charges the job its wall time, as it does a lockstep
// batch, and its working set is the sum of its lanes'. The attempt
// context carries batch cancellation; the solver polls it between
// iterations.
func (b *Local) job(reqs []TileRequest, lanes []lane, out []*grid.Mat) device.Job {
	job := device.Job{Work: func(ctx context.Context, _ int) error {
		failed := make([][]error, len(lanes))
		parallel.Do(len(lanes), len(lanes), func(l int) {
			failed[l] = b.solve(ctx, reqs, lanes[l], out)
		})
		return errors.Join(slices.Concat(failed...)...)
	}}
	for _, l := range lanes {
		for _, i := range l.members {
			job.Pixels += reqs[i].Pixels
		}
	}
	return job
}

// solve runs one lane: as one lockstep batch through the batch policy,
// or a lone request directly. It returns the failed members' errors.
func (b *Local) solve(ctx context.Context, reqs []TileRequest, l lane, out []*grid.Mat) []error {
	run := l.members
	targets, inits := make([]*grid.Mat, len(run)), make([]*grid.Mat, len(run))
	ps := make([]opt.Params, len(run))
	for j, i := range run {
		targets[j], inits[j], ps[j] = reqs[i].Target, reqs[i].Init, reqs[i].Params
		ps[j].Ctx = ctx
	}
	outs, errs := make([]*grid.Mat, 1), make([]error, 1)
	if l.batch {
		outs, errs = b.Batch.SolveBatch(b.Solver.(opt.BatchSolver), targets, inits, ps)
	} else {
		outs[0], errs[0] = b.Solver.Solve(targets[0], inits[0], ps[0])
	}
	var failed []error
	for j, i := range run {
		if errs[j] != nil {
			failed = append(failed, fmt.Errorf("core: tile %d: %w", reqs[i].Index, errs[j]))
			continue
		}
		out[i] = outs[j]
	}
	return failed
}
