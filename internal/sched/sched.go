// Package sched provides a cross-job batch scheduler for tile solves.
// Concurrent jobs — and concurrent tiles of one job — that miss the
// tile cache land their solves in a shared collector, which groups
// compatible requests into lockstep batches (opt.BatchSolver, backed
// by litho.LossGradBatch's whole-batch fft.Batch2D transforms). The
// engine's two-barrier batched transform then amortises across the
// entire queue instead of one tile's kernel set.
//
// Batching never changes numerics: a batched solve is bit-identical to
// a lone solve of the same tile (the BatchSolver contract), so the
// scheduler composes with the determinism guarantees and the
// content-addressed cache.
package sched

import (
	"fmt"
	"sync"
	"time"

	"mgsilt/internal/fault"
	"mgsilt/internal/grid"
	"mgsilt/internal/opt"
)

// DefaultMaxWait is the flush deadline used when Options.MaxWait is
// unset: long enough for a burst of concurrent tile dispatches to
// coalesce, short enough to be invisible next to a tile solve.
const DefaultMaxWait = 2 * time.Millisecond

// Options configures a Batcher.
type Options struct {
	// BatchSize is the flush threshold: a class's pending requests are
	// solved as one batch the moment BatchSize of them have gathered.
	// < 2 disables batching (Solve degenerates to a direct solve).
	BatchSize int
	// MaxWait bounds how long the first request of a batch may wait
	// for peers before the partial batch is flushed. <= 0 selects
	// DefaultMaxWait.
	MaxWait time.Duration
}

// Stats is a point-in-time snapshot of the scheduler counters.
type Stats struct {
	Requests uint64 // solves routed through the batcher
	Batches  uint64 // flushes executed (including singleton timeouts)
	Batched  uint64 // requests that shared a flush with at least one peer
	MaxBatch int    // largest flush observed
}

// class identifies requests that may share a lockstep batch: same
// solver/optics configuration (the caller-supplied fingerprint key),
// same geometry, and same lockstep solve parameters. Ctx and Freeze
// are per-tile and deliberately absent.
type class struct {
	key            string
	h, w           int
	iters, stretch int
	lr, pv         float64
	fidelity       float64
}

// request is one tile solve waiting for its batch.
type request struct {
	target, init *grid.Mat
	p            opt.Params
	done         chan struct{}
	m            *grid.Mat
	err          error
}

// bucket collects one class's pending requests.
type bucket struct {
	solver opt.BatchSolver
	reqs   []*request
	timer  *time.Timer
}

// Batcher groups compatible tile solves into shared batches. Safe for
// concurrent use; a nil *Batcher solves directly.
type Batcher struct {
	size int
	wait time.Duration

	mu      sync.Mutex
	pending map[class]*bucket
	stats   Stats
}

// New builds a Batcher from opts.
func New(opts Options) *Batcher {
	if opts.MaxWait <= 0 {
		opts.MaxWait = DefaultMaxWait
	}
	return &Batcher{
		size:    opts.BatchSize,
		wait:    opts.MaxWait,
		pending: make(map[class]*bucket),
	}
}

// Stats returns a snapshot of the counters.
func (b *Batcher) Stats() Stats {
	if b == nil {
		return Stats{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Solve solves one tile through the scheduler. classKey must encode
// the optics and solver configuration fingerprints (equal keys must
// imply interchangeable solvers); requests only ever batch with equal
// keys, geometry, and lockstep parameters. The call blocks until the
// request's batch has been solved — at most MaxWait of gathering plus
// the solve itself — and returns this tile's result, bit-identical to
// solver.Solve(target, init, p).
func (b *Batcher) Solve(classKey string, solver opt.BatchSolver, target, init *grid.Mat, p opt.Params) (*grid.Mat, error) {
	if b == nil || b.size < 2 {
		return solver.Solve(target, init, p)
	}
	cls := class{
		key: classKey, h: init.H, w: init.W,
		iters: p.Iters, stretch: p.Stretch, lr: p.LR, pv: p.PVWeight,
		fidelity: p.Fidelity,
	}
	req := &request{target: target, init: init, p: p, done: make(chan struct{})}

	b.mu.Lock()
	b.stats.Requests++
	bk := b.pending[cls]
	if bk == nil {
		bk = &bucket{solver: solver}
		b.pending[cls] = bk
		bk.timer = time.AfterFunc(b.wait, func() { b.flush(cls) })
	}
	bk.reqs = append(bk.reqs, req)
	if len(bk.reqs) >= b.size {
		// Size trigger: this caller runs the batch itself.
		bk.timer.Stop()
		delete(b.pending, cls)
		reqs := bk.reqs
		solver := bk.solver
		b.mu.Unlock()
		b.run(solver, reqs)
	} else {
		b.mu.Unlock()
	}

	<-req.done
	return req.m, req.err
}

// flush solves whatever a class has gathered when its MaxWait expires.
func (b *Batcher) flush(cls class) {
	b.mu.Lock()
	bk := b.pending[cls]
	if bk == nil {
		b.mu.Unlock()
		return
	}
	delete(b.pending, cls)
	b.mu.Unlock()
	b.run(bk.solver, bk.reqs)
}

// run solves one batch and publishes per-request outcomes.
func (b *Batcher) run(solver opt.BatchSolver, reqs []*request) {
	b.mu.Lock()
	b.stats.Batches++
	if len(reqs) > 1 {
		b.stats.Batched += uint64(len(reqs))
	}
	if len(reqs) > b.stats.MaxBatch {
		b.stats.MaxBatch = len(reqs)
	}
	b.mu.Unlock()

	outs, errs := solveBatch(solver, reqs)
	for i, r := range reqs {
		r.m, r.err = outs[i], errs[i]
		close(r.done)
	}
}

// solveBatch calls solver.SolveBatch over reqs. A panic becomes the
// error of every request of the batch: unrecovered it would strand the
// peers of the caller that ran the batch or — on the flush timer's
// goroutine, where nobody can recover — kill the process. An injected
// fault (fault.Panic) is returned as the fault.Error it carries, so each
// tile's device job retries exactly as a direct solve's would.
func solveBatch(solver opt.BatchSolver, reqs []*request) (outs []*grid.Mat, errs []error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		err, injected := fault.FromPanic(r)
		if !injected {
			err = fmt.Errorf("sched: batch solve panicked: %v", r)
		}
		outs, errs = make([]*grid.Mat, len(reqs)), make([]error, len(reqs))
		for i := range errs {
			errs[i] = err
		}
	}()
	targets := make([]*grid.Mat, len(reqs))
	inits := make([]*grid.Mat, len(reqs))
	ps := make([]opt.Params, len(reqs))
	for i, r := range reqs {
		targets[i], inits[i], ps[i] = r.target, r.init, r.p
	}
	return solver.SolveBatch(targets, inits, ps)
}
