package sched

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
		outs[i] = m.Clone().Apply(func(v float64) float64 { return v + 1 })
	}
	return outs, errs
}

func mat(v float64) *grid.Mat { return grid.NewMat(4, 4).Fill(v) }

func params() opt.Params { return opt.Params{Iters: 3, LR: 1, Stretch: 1} }

// Concurrent compatible requests must coalesce into one SolveBatch.
func TestCoalesce(t *testing.T) {
	fs := &fakeSolver{}
	b := New(Options{BatchSize: 4, MaxWait: time.Second})

	const n = 4
	var wg sync.WaitGroup
	results := make([]*grid.Mat, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := b.Solve("k", fs, mat(0), mat(float64(i)), params())
			if err != nil {
				t.Errorf("Solve: %v", err)
			}
			results[i] = m
		}(i)
	}
	wg.Wait()

	if n := fs.solves.Load(); n != 1 {
		t.Fatalf("SolveBatch ran %d times, want 1", n)
	}
	for i, m := range results {
		if m.At(0, 0) != float64(i)+1 {
			t.Errorf("request %d got payload %g, want %g", i, m.At(0, 0), float64(i)+1)
		}
	}
	st := b.Stats()
	if st.Requests != n || st.Batches != 1 || st.Batched != n || st.MaxBatch != n {
		t.Fatalf("stats = %+v", st)
	}
}

// Requests in different classes (key, geometry, or lockstep params)
// must never share a batch.
func TestClassSeparation(t *testing.T) {
	fs := &fakeSolver{}
	b := New(Options{BatchSize: 2, MaxWait: 10 * time.Millisecond})

	p2 := params()
	p2.Iters++
	var wg sync.WaitGroup
	calls := []func() (*grid.Mat, error){
		func() (*grid.Mat, error) { return b.Solve("a", fs, mat(0), mat(0), params()) },
		func() (*grid.Mat, error) { return b.Solve("b", fs, mat(0), mat(0), params()) },
		func() (*grid.Mat, error) { return b.Solve("a", fs, mat(0), mat(0), p2) },
		func() (*grid.Mat, error) {
			return b.Solve("a", fs, grid.NewMat(8, 8), grid.NewMat(8, 8), params())
		},
	}
	for _, call := range calls {
		wg.Add(1)
		go func(call func() (*grid.Mat, error)) {
			defer wg.Done()
			if _, err := call(); err != nil {
				t.Errorf("Solve: %v", err)
			}
		}(call)
	}
	wg.Wait()

	if st := b.Stats(); st.Batched != 0 || st.MaxBatch != 1 {
		t.Fatalf("incompatible requests shared a batch: %+v", st)
	}
}

// A partial batch must flush after MaxWait instead of blocking for
// peers that never arrive.
func TestMaxWaitFlush(t *testing.T) {
	fs := &fakeSolver{}
	b := New(Options{BatchSize: 100, MaxWait: 5 * time.Millisecond})

	start := time.Now()
	m, err := b.Solve("k", fs, mat(0), mat(7), params())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if m.At(0, 0) != 8 {
		t.Fatalf("payload = %g, want 8", m.At(0, 0))
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("timeout flush took %v", waited)
	}
	if st := b.Stats(); st.Batches != 1 || st.Batched != 0 {
		t.Fatalf("stats = %+v, want one singleton flush", st)
	}
}

// Per-request errors must reach their callers.
func TestErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	fs := &fakeSolver{err: boom}
	b := New(Options{BatchSize: 2, MaxWait: time.Second})

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Solve("k", fs, mat(0), mat(0), params()); !errors.Is(err, boom) {
				t.Errorf("err = %v, want %v", err, boom)
			}
		}()
	}
	wg.Wait()
}

// A panicking SolveBatch must fail every request of its batch — on the
// flush timer's goroutine without killing the process, on the
// size-trigger caller without stranding its peers — and leave the class
// usable. An injected fault reaches each caller as the retryable
// fault.Error it carries.
func TestPanickingBatch(t *testing.T) {
	const n = 2
	// solveAll runs n concurrent requests of one class and returns their
	// errors; the class flushes by size or by timer, whichever opts set.
	solveAll := func(t *testing.T, b *Batcher, fs *fakeSolver) []error {
		t.Helper()
		ch := make(chan error, n)
		for i := 0; i < n; i++ {
			go func() {
				_, err := b.Solve("k", fs, mat(0), mat(0), params())
				ch <- err
			}()
		}
		errs := make([]error, n)
		for i := range errs {
			select {
			case errs[i] = <-ch:
			case <-time.After(10 * time.Second):
				t.Fatal("a request of the batch never returned")
			}
		}
		return errs
	}

	injected := &fault.Error{Site: fault.SiteLithoAerial}
	triggers := map[string]Options{
		"timer-flush":  {BatchSize: 100, MaxWait: 100 * time.Millisecond},
		"size-trigger": {BatchSize: n, MaxWait: time.Minute},
	}
	panics := map[string]any{"injected": fault.Panic{Err: injected}, "genuine": "bug"}
	for trigger, opts := range triggers {
		for kind, val := range panics {
			t.Run(trigger+"/"+kind, func(t *testing.T) {
				fs := &fakeSolver{panics: val}
				b := New(opts)

				for _, err := range solveAll(t, b, fs) {
					if err == nil {
						t.Fatal("request of a panicked batch returned no error")
					}
					if fault.Transient(err) != (kind == "injected") {
						t.Fatalf("err = %v; retryable: %v", err, fault.Transient(err))
					}
				}
				for _, err := range solveAll(t, b, fs) {
					if err != nil {
						t.Fatalf("next batch of the class: %v", err)
					}
				}
				if st := b.Stats(); st.Requests != 2*n || st.Batches != 2 || st.Batched != 2*n {
					t.Fatalf("stats = %+v, want %d requests in 2 shared flushes", st, 2*n)
				}
			})
		}
	}
}

// A nil Batcher and a sub-2 batch size both degenerate to direct
// solves.
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
}
