package sched

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"mgsilt/internal/fault"
	"mgsilt/internal/grid"
	"mgsilt/internal/opt"
)

// fakeSolver records the batches it receives and returns init+1 per
// tile, so tests can verify both routing and result plumbing.
type fakeSolver struct {
	mu      sync.Mutex
	batches [][]int // sizes of the batches seen
	solves  atomic.Int64
	err     error
	panics  any // when set, the next SolveBatch panics with it (guarded by mu)
}

func (f *fakeSolver) Name() string { return "fake" }

func (f *fakeSolver) Solve(target, init *grid.Mat, p opt.Params) (*grid.Mat, error) {
	out, errs := f.SolveBatch([]*grid.Mat{target}, []*grid.Mat{init}, []opt.Params{p})
	return out[0], errs[0]
}

func (f *fakeSolver) SolveBatch(targets, inits []*grid.Mat, ps []opt.Params) ([]*grid.Mat, []error) {
	f.solves.Add(1)
	f.mu.Lock()
	v := f.panics
	f.panics = nil
	f.batches = append(f.batches, []int{len(inits)})
	f.mu.Unlock()
	if v != nil {
		panic(v)
	}
	outs := make([]*grid.Mat, len(inits))
	errs := make([]error, len(inits))
	for i, m := range inits {
		if f.err != nil {
			errs[i] = f.err
			continue
		}
		outs[i] = m.Clone().AddScaled(grid.NewMat(m.H, m.W).Fill(1), 1)
	}
	return outs, errs
}

func mat(v float64) *grid.Mat { return grid.NewMat(4, 4).Fill(v) }

func params() opt.Params { return opt.Params{Iters: 3, LR: 1, Stretch: 1} }

// round returns n requests of one class, the i-th with payload i.
func round(n int) (targets, inits []*grid.Mat, ps []opt.Params) {
	for i := 0; i < n; i++ {
		targets = append(targets, mat(0))
		inits = append(inits, mat(float64(i)))
		ps = append(ps, params())
	}
	return targets, inits, ps
}

// solveRound solves round(n) as one batch.
func solveRound(b *Batcher, fs *fakeSolver, n int) ([]*grid.Mat, []error) {
	targets, inits, ps := round(n)
	return b.SolveBatch(fs, targets, inits, ps)
}

// same returns n planning items of one class, each of the given size.
func same(n, pixels int) []Item {
	out := make([]Item, n)
	for i := range out {
		out[i] = Item{Class: ClassOf("k", mat(0), params()), Pixels: pixels}
	}
	return out
}

// Compatible requests of a round must coalesce into one run, solved by
// one SolveBatch that hands each request its own result.
func TestCoalesce(t *testing.T) {
	fs := &fakeSolver{}
	b := New(Options{BatchSize: 4})

	const n = 4
	if runs := b.Plan(same(n, 16), 0); !reflect.DeepEqual(runs, [][]int{{0, 1, 2, 3}}) {
		t.Fatalf("runs = %v, want one run of all %d", runs, n)
	}
	outs, errs := solveRound(b, fs, n)
	if n := fs.solves.Load(); n != 1 {
		t.Fatalf("SolveBatch ran %d times, want 1", n)
	}
	for i, m := range outs {
		if errs[i] != nil || m.At(0, 0) != float64(i)+1 {
			t.Errorf("request %d: payload %v, err %v; want %g", i, m, errs[i], float64(i)+1)
		}
	}
	st := b.Stats()
	if st.Requests != n || st.Batches != 1 || st.Batched != n || st.MaxBatch != n {
		t.Fatalf("stats = %+v", st)
	}
}

// Requests in different classes (key, geometry, or lockstep params)
// must never share a run.
func TestClassSeparation(t *testing.T) {
	b := New(Options{BatchSize: 2})

	p2 := params()
	p2.Iters++
	its := []Item{
		{Class: ClassOf("a", mat(0), params())},
		{Class: ClassOf("b", mat(0), params())},
		{Class: ClassOf("a", mat(0), p2)},
		{Class: ClassOf("a", grid.NewMat(8, 8), params())},
	}
	if runs := b.Plan(its, 0); !reflect.DeepEqual(runs, [][]int{{0}, {1}, {2}, {3}}) {
		t.Fatalf("incompatible requests shared a run: %v", runs)
	}
}

// Plan cuts in request order: a full run, or one the next request would
// push past device memory, closes, and the class's next request opens a
// new run at its own position. Solo requests run alone.
func TestPlanCutsRuns(t *testing.T) {
	b := New(Options{BatchSize: 3})
	its := same(4, 16)
	its = append(its,
		Item{Class: ClassOf("other", mat(0), params()), Pixels: 16},
		Item{Class: its[0].Class, Solo: true, Pixels: 16})
	its = append(its, same(2, 16)...)
	want := [][]int{{0, 1, 2}, {3, 6, 7}, {4}, {5}}
	if runs := b.Plan(its, 0); !reflect.DeepEqual(runs, want) {
		t.Fatalf("runs = %v, want %v", runs, want)
	}
	// Two requests fit a device; three do not.
	want = [][]int{{0, 1}, {2, 3}}
	if runs := b.Plan(same(4, 16), 32); !reflect.DeepEqual(runs, want) {
		t.Fatalf("memory-bound runs = %v, want %v", runs, want)
	}
}

// Per-request errors must reach their callers.
func TestErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	fs := &fakeSolver{err: boom}
	b := New(Options{BatchSize: 2})

	_, errs := solveRound(b, fs, 2)
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Errorf("request %d: err = %v, want %v", i, err, boom)
		}
	}
	if _, err := b.Solve("k", fs, mat(0), mat(0), params()); !errors.Is(err, boom) {
		t.Errorf("Solve: err = %v, want %v", err, boom)
	}
}

// A panicking SolveBatch unwinds to its caller — the device job
// boundary, which turns an injected fault into a retryable error and
// retries the job — carrying its value intact, and leaves the batcher
// usable. No batch runs where nobody can recover it.
func TestPanickingBatch(t *testing.T) {
	const n = 2
	injected := &fault.Error{Site: fault.SiteLithoAerial}
	panics := map[string]any{"injected": fault.Panic{Err: injected}, "genuine": "bug"}
	for kind, val := range panics {
		// A full run of BatchSize requests.
		t.Run("size-trigger/"+kind, func(t *testing.T) {
			fs := &fakeSolver{panics: val}
			b := New(Options{BatchSize: n})

			r := func() (r any) {
				defer func() { r = recover() }()
				solveRound(b, fs, n)
				return nil
			}()
			if r == nil {
				t.Fatal("the batch's panic did not reach its caller")
			}
			if err, ok := fault.FromPanic(r); ok != (kind == "injected") || (ok && !fault.Transient(err)) {
				t.Fatalf("recovered %v; injected: %v", r, ok)
			}
			if _, errs := solveRound(b, fs, n); errs[0] != nil || errs[1] != nil {
				t.Fatalf("next batch of the class: %v", errs)
			}
			if st := b.Stats(); st.Requests != 2*n || st.Batches != 2 || st.Batched != 2*n {
				t.Fatalf("stats = %+v, want %d requests in 2 shared batches", st, 2*n)
			}
		})
	}
}

// A nil Batcher and a sub-2 batch size both degenerate to direct
// solves and runs of one.
func TestDisabledFallback(t *testing.T) {
	fs := &fakeSolver{}
	var nilB *Batcher
	if _, err := nilB.Solve("k", fs, mat(0), mat(0), params()); err != nil {
		t.Fatalf("nil batcher: %v", err)
	}
	if nilB.Stats() != (Stats{}) {
		t.Fatalf("nil batcher stats not zero")
	}

	b := New(Options{BatchSize: 1})
	if _, err := b.Solve("k", fs, mat(0), mat(0), params()); err != nil {
		t.Fatalf("size-1 batcher: %v", err)
	}
	if st := b.Stats(); st.Requests != 0 {
		t.Fatalf("disabled batcher counted requests: %+v", st)
	}
	if n := fs.solves.Load(); n != 2 {
		t.Fatalf("direct solves = %d, want 2", n)
	}
	for _, b := range []*Batcher{nilB, b} {
		if runs := b.Plan(same(2, 16), 0); !reflect.DeepEqual(runs, [][]int{{0}, {1}}) {
			t.Fatalf("disabled batcher planned %v", runs)
		}
	}
}

// Solve is a recorded batch of one, run on the caller.
func TestSolveIsBatchOfOne(t *testing.T) {
	fs := &fakeSolver{}
	b := New(Options{BatchSize: 4})
	m, err := b.Solve("k", fs, mat(0), mat(7), params())
	if err != nil || m.At(0, 0) != 8 {
		t.Fatalf("Solve = %v, %v; want payload 8", m, err)
	}
	if st := b.Stats(); st != (Stats{Requests: 1, Batches: 1, MaxBatch: 1}) {
		t.Fatalf("stats = %+v, want one batch of one", st)
	}
}
