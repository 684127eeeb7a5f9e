// Package sched is the lockstep batch policy of tile solves. A tile
// backend sees every request of a barrier-synchronised round, so it
// forms the batches itself: Plan cuts the round's requests, in order,
// into runs of one lockstep class each, at most BatchSize long and
// within a device's memory, and each run is one device job that calls
// SolveBatch (opt.BatchSolver, backed by litho.LossGradBatch's
// whole-batch fft.Batch2D transforms). A run holds only requests the
// round already has, so no solve ever waits for peers.
//
// Batching never changes numerics: a batched solve is bit-identical to
// a lone solve of the same tile (the BatchSolver contract), so the
// policy composes with the determinism guarantees and the
// content-addressed cache.
package sched

import (
	"sync"

	"mgsilt/internal/grid"
	"mgsilt/internal/opt"
)

// Options configures a Batcher.
type Options struct {
	// BatchSize is the longest run Plan forms. < 2 disables batching:
	// every run holds one request and Solve degenerates to a direct
	// solve.
	BatchSize int
}

// Stats is a point-in-time snapshot of the batch counters.
type Stats struct {
	Requests uint64 // solves run through SolveBatch
	Batches  uint64 // lockstep batches solved
	Batched  uint64 // requests that shared a batch with at least one peer
	MaxBatch int    // largest batch solved
}

// Class identifies requests that may share a lockstep batch: same
// solver/optics configuration (the caller-supplied fingerprint key),
// same geometry, and same lockstep solve parameters. Ctx and Freeze
// are per-tile and deliberately absent.
type Class struct {
	key            string
	h, w           int
	iters, stretch int
	lr, pv         float64
}

// ClassOf returns the class of one request. key must encode the optics
// and solver configuration fingerprints: equal keys must imply
// interchangeable solvers.
func ClassOf(key string, init *grid.Mat, p opt.Params) Class {
	return Class{
		key: key, h: init.H, w: init.W,
		iters: p.Iters, stretch: p.Stretch, lr: p.LR, pv: p.PVWeight,
	}
}

// Item is one request offered to Plan.
type Item struct {
	Class Class
	// Solo requests run alone: the solver cannot batch them, or the
	// caller keeps them on their own device job.
	Solo bool
	// Pixels is the request's device working set.
	Pixels int
}

// Batcher is the batch-size policy plus the counters of the batches
// solved under it. Safe for concurrent use; a nil *Batcher plans runs
// of one and solves directly.
type Batcher struct {
	size int

	mu    sync.Mutex
	stats Stats
}

// New builds a Batcher from opts.
func New(opts Options) *Batcher {
	return &Batcher{size: opts.BatchSize}
}

// enabled reports whether runs may hold more than one request.
func (b *Batcher) enabled() bool { return b != nil && b.size >= 2 }

// Stats returns a snapshot of the counters.
func (b *Batcher) Stats() Stats {
	if b == nil {
		return Stats{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Plan cuts items, in order, into runs and returns them as index lists
// ordered by their first member. A run holds one class, at most
// BatchSize items whose Pixels sum to at most memPixels (0 = unlimited);
// an item that does not fit the open run of its class starts the next
// one. Solo items, and every item when batching is disabled, are runs
// of one.
func (b *Batcher) Plan(items []Item, memPixels int) [][]int {
	runs := make([][]int, 0, len(items))
	pixels := make([]int, 0, len(items))
	open := map[Class]int{} // class → its open run
	for i, it := range items {
		if !it.Solo && b.enabled() {
			r, ok := open[it.Class]
			if ok && len(runs[r]) < b.size && (memPixels == 0 || pixels[r]+it.Pixels <= memPixels) {
				runs[r] = append(runs[r], i)
				pixels[r] += it.Pixels
				continue
			}
			open[it.Class] = len(runs)
		}
		runs = append(runs, []int{i})
		pixels = append(pixels, it.Pixels)
	}
	return runs
}

// SolveBatch solves one run of a class in lockstep on the caller and
// records it (with batching disabled, nothing is recorded). A panicking
// solver unwinds to the caller, where the device job boundary turns an
// injected fault into a retryable error.
func (b *Batcher) SolveBatch(solver opt.BatchSolver, targets, inits []*grid.Mat, ps []opt.Params) ([]*grid.Mat, []error) {
	if b.enabled() {
		n := len(inits)
		b.mu.Lock()
		b.stats.Requests += uint64(n)
		b.stats.Batches++
		if n > 1 {
			b.stats.Batched += uint64(n)
		}
		b.stats.MaxBatch = max(b.stats.MaxBatch, n)
		b.mu.Unlock()
	}
	return solver.SolveBatch(targets, inits, ps)
}

// Solve solves one tile as a recorded batch of one, on the caller, and
// returns its result, bit-identical to solver.Solve(target, init, p). A
// lone request has no peers, so classKey only names the class it would
// batch in. With batching disabled it is a direct solve.
func (b *Batcher) Solve(classKey string, solver opt.BatchSolver, target, init *grid.Mat, p opt.Params) (*grid.Mat, error) {
	if !b.enabled() {
		return solver.Solve(target, init, p)
	}
	outs, errs := b.SolveBatch(solver, []*grid.Mat{target}, []*grid.Mat{init}, []opt.Params{p})
	return outs[0], errs[0]
}
