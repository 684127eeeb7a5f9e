package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"mgsilt/internal/core"
	"mgsilt/internal/device"
	"mgsilt/internal/grid"
	"mgsilt/internal/opt"
	"mgsilt/internal/pipeline"
)

// Layers a span's time is attributed to.
const (
	layerOp      = "op"
	layerCore    = "core"
	layerOpt     = "opt"
	layerShard   = "shard"
	layerService = "service"
)

// opTrace is the trace of one in-process op: op → stage → backend
// round → solver call, recorded through the flow's exported hooks
// (Progress opens a stage, StageDone closes it) and wrappers on its
// two public seams (Config.Solver, Config.Tiles).
type opTrace struct {
	rec   *recorder
	op    int
	root  int          // the op span
	stage atomic.Int64 // the open stage span; solver spans hang off it
	round atomic.Int64 // the open backend round, when a backend is wrapped

	mu sync.Mutex
	// Solver work by litho stretch factor: tile-iterations (one
	// LossGrad each) and calls.
	iters map[int]int
	calls int
	// stageMasks are the layouts after each stage (Checkpoint hook),
	// for the offline iterations-to-quality count.
	stageMasks []core.Checkpoint
}

func newOpTrace(rec *recorder, op int) *opTrace {
	return &opTrace{rec: rec, op: op, iters: map[int]int{}}
}

// install adds the hooks and wrappers to one op's configuration.
func (t *opTrace) install(cfg *core.Config) {
	cfg.Progress = func(stage string, _, _ int) {
		t.stage.Store(int64(t.rec.begin(t.op, t.root, layerCore, stage)))
	}
	cfg.StageDone = func(pipeline.StageTiming) {
		t.rec.end(int(t.stage.Load()))
	}
	cfg.Checkpoint = func(ck core.Checkpoint) {
		t.stageMasks = append(t.stageMasks, ck)
	}
	if cfg.Tiles != nil {
		cfg.Tiles = &tracedBackend{inner: cfg.Tiles, t: t}
	} else {
		cfg.Solver = &tracedSolver{inner: opt.NewPixel(cfg.Sim), t: t}
	}
}

// parent is the span a solver call or backend round hangs off.
func (t *opTrace) parent() int {
	if r := t.round.Load(); r != 0 {
		return int(r)
	}
	return int(t.stage.Load())
}

func (t *opTrace) count(p opt.Params, tiles int) {
	t.mu.Lock()
	t.iters[p.Stretch] += p.Iters * tiles
	t.calls += tiles
	t.mu.Unlock()
}

// tracedSolver wraps the tile solver. It forwards the fingerprint
// (cache keys and batch classes must not change under tracing) and the
// batch entry point (the batcher needs a BatchSolver).
type tracedSolver struct {
	inner *opt.Pixel
	t     *opTrace
}

func (s *tracedSolver) Name() string        { return s.inner.Name() }
func (s *tracedSolver) Fingerprint() string { return s.inner.Fingerprint() }

func (s *tracedSolver) Solve(target, init *grid.Mat, p opt.Params) (*grid.Mat, error) {
	id := s.t.rec.begin(s.t.op, s.t.parent(), layerOpt, "solve")
	defer s.t.rec.end(id)
	s.t.count(p, 1)
	return s.inner.Solve(target, init, p)
}

func (s *tracedSolver) SolveBatch(targets, inits []*grid.Mat, ps []opt.Params) ([]*grid.Mat, []error) {
	id := s.t.rec.begin(s.t.op, s.t.parent(), layerOpt, "solve-batch")
	defer s.t.rec.end(id)
	if len(ps) > 0 {
		s.t.count(ps[0], len(ps))
	}
	return s.inner.SolveBatch(targets, inits, ps)
}

// tracedBackend wraps a TileBackend (the shard coordinator): one span
// per barrier round. It forwards the backend's virtual-clock
// accounting, which the flow folds into Result.TAT.
type tracedBackend struct {
	inner core.TileBackend
	t     *opTrace
}

func (b *tracedBackend) SolveTiles(ctx context.Context, reqs []core.TileRequest) ([]*grid.Mat, error) {
	id := b.t.rec.begin(b.t.op, int(b.t.stage.Load()), layerShard, "round")
	b.t.round.Store(int64(id))
	defer func() {
		b.t.round.Store(0)
		b.t.rec.end(id)
	}()
	for _, r := range reqs {
		b.t.count(r.Params, 1)
	}
	return b.inner.SolveTiles(ctx, reqs)
}

func (b *tracedBackend) SimElapsed() time.Duration {
	if bs, ok := b.inner.(core.BackendStats); ok {
		return bs.SimElapsed()
	}
	return 0
}

func (b *tracedBackend) ClusterStats() device.Stats {
	if bs, ok := b.inner.(core.BackendStats); ok {
		return bs.ClusterStats()
	}
	return device.Stats{}
}

// opBudget is the time budget of one traced op, from its spans.
type opBudget struct {
	wall        time.Duration
	stage       map[string]time.Duration // Σ stage spans by name (inspect included)
	coreSelf    time.Duration            // optimisation stages minus the union of their children
	unaccounted time.Duration            // op minus the union of its stages
	solveBusy   time.Duration            // Σ solver spans (concurrent solves add up)
	roundBusy   time.Duration            // Σ backend round spans
}

// budgetOf folds one op's spans into its budget.
func budgetOf(spans []span, op int) opBudget {
	b := opBudget{stage: map[string]time.Duration{}}
	var mine []span
	for _, s := range spans {
		if s.Op == op {
			mine = append(mine, s)
		}
	}
	self := selfTimes(mine)
	for _, s := range mine {
		switch s.Layer {
		case layerOp:
			b.wall = s.dur()
			b.unaccounted = self[s.ID]
		case layerCore:
			b.stage[s.Name] += s.dur()
			if s.Name != "inspect" {
				b.coreSelf += self[s.ID]
			}
		case layerOpt:
			b.solveBusy += s.dur()
		case layerShard:
			b.roundBusy += s.dur()
		}
	}
	return b
}
