package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withWorkers runs f with the pool temporarily set to n workers.
func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	old := Workers()
	SetWorkers(n)
	defer SetWorkers(old)
	f()
}

func TestDoCoversAllIndicesOnce(t *testing.T) {
	for _, w := range []int{1, 2, 4, 16} {
		withWorkers(t, w, func() {
			const n = 1000
			counts := make([]int32, n)
			Do(n, 0, func(i int) {
				atomic.AddInt32(&counts[i], 1)
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d: index %d visited %d times", w, i, c)
				}
			}
		})
	}
}

func TestDoChunksCoversAllIndicesOnce(t *testing.T) {
	for _, w := range []int{1, 2, 4, 16} {
		withWorkers(t, w, func() {
			const n = 997 // prime: uneven chunking
			counts := make([]int32, n)
			DoChunks(n, 0, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("bad chunk [%d,%d)", lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d: index %d visited %d times", w, i, c)
				}
			}
		})
	}
}

func TestDoZeroAndSingle(t *testing.T) {
	called := 0
	Do(0, 0, func(int) { called++ })
	if called != 0 {
		t.Fatalf("Do(0) ran %d tasks", called)
	}
	Do(1, 0, func(i int) {
		if i != 0 {
			t.Fatalf("Do(1) got index %d", i)
		}
		called++
	})
	if called != 1 {
		t.Fatalf("Do(1) ran %d tasks", called)
	}
	DoChunks(0, 0, func(lo, hi int) { t.Fatalf("DoChunks(0) ran [%d,%d)", lo, hi) })
}

func TestLimitCapsConcurrency(t *testing.T) {
	withWorkers(t, 16, func() {
		var cur, peak atomic.Int32
		Do(64, 3, func(int) {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
		})
		if p := peak.Load(); p > 3 {
			t.Fatalf("limit=3 reached concurrency %d", p)
		}
	})
}

func TestPoolBoundIsGlobal(t *testing.T) {
	withWorkers(t, 4, func() {
		// Many concurrent top-level sections: helpers are bounded by the
		// shared token budget (3), so total helper concurrency cannot
		// exceed callers + 3. We track helper-goroutine concurrency by
		// counting goroutines distinct from the callers.
		var active, peak atomic.Int32
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				Do(32, 0, func(int) {
					a := active.Add(1)
					for {
						p := peak.Load()
						if a <= p || peak.CompareAndSwap(p, a) {
							break
						}
					}
					time.Sleep(100 * time.Microsecond)
					active.Add(-1)
				})
			}()
		}
		wg.Wait()
		// 8 callers + at most 3 helpers.
		if p := peak.Load(); p > 11 {
			t.Fatalf("global budget exceeded: peak concurrency %d > 11", p)
		}
	})
}

// TestNestedDoNoDeadlock is the pool-starvation test: tile-level ×
// kernel-level × FFT-level nesting must complete even when the pool is
// tiny, because acquisition never blocks and the caller always works.
func TestNestedDoNoDeadlock(t *testing.T) {
	for _, w := range []int{1, 2, runtime.NumCPU()} {
		withWorkers(t, w, func() {
			done := make(chan struct{})
			var leaves atomic.Int64
			go func() {
				defer close(done)
				Do(4, 0, func(int) { // tile level
					Do(6, 0, func(int) { // kernel level
						Do(8, 0, func(int) { // FFT row level
							leaves.Add(1)
						})
					})
				})
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatalf("workers=%d: nested Do deadlocked", w)
			}
			if n := leaves.Load(); n != 4*6*8 {
				t.Fatalf("workers=%d: %d leaf tasks ran, want %d", w, n, 4*6*8)
			}
		})
	}
}

func TestSetWorkersDefaultsAndFloor(t *testing.T) {
	old := Workers()
	defer SetWorkers(old)
	if got := SetWorkers(7); got != 7 {
		t.Fatalf("SetWorkers(7) = %d", got)
	}
	if got := Workers(); got != 7 {
		t.Fatalf("Workers() = %d after SetWorkers(7)", got)
	}
	if got := SetWorkers(0); got < 1 {
		t.Fatalf("SetWorkers(0) = %d, want >= 1", got)
	}
}

// TestSetWorkersDuringDo resizes the pool while sections are running:
// tokens from the old budget must release cleanly (into the old
// channel) without panics or lost work.
func TestSetWorkersDuringDo(t *testing.T) {
	old := Workers()
	defer SetWorkers(old)
	SetWorkers(4)
	var total atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				Do(50, 0, func(int) { total.Add(1) })
			}
		}()
	}
	for r := 2; r <= 8; r++ {
		SetWorkers(r)
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	if got := total.Load(); got != 4*20*50 {
		t.Fatalf("lost work across resize: %d tasks ran, want %d", got, 4*20*50)
	}
}

func TestChunkBounds(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{{10, 3}, {7, 7}, {5, 2}, {1, 1}, {100, 16}} {
		prev := 0
		for p := 0; p < tc.parts; p++ {
			lo, hi := chunkBounds(tc.n, tc.parts, p)
			if lo != prev {
				t.Fatalf("n=%d parts=%d: chunk %d starts at %d, want %d", tc.n, tc.parts, p, lo, prev)
			}
			if hi < lo {
				t.Fatalf("n=%d parts=%d: chunk %d inverted [%d,%d)", tc.n, tc.parts, p, lo, hi)
			}
			prev = hi
		}
		if prev != tc.n {
			t.Fatalf("n=%d parts=%d: chunks end at %d", tc.n, tc.parts, prev)
		}
	}
}

func TestDoForwardsHelperPanic(t *testing.T) {
	withWorkers(t, 4, func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("helper panic was swallowed")
			}
			if s, ok := r.(string); !ok || s != "injected" {
				t.Fatalf("forwarded panic %v, want \"injected\"", r)
			}
		}()
		var onCaller atomic.Bool
		caller := goid()
		Do(64, 4, func(i int) {
			if goid() == caller {
				onCaller.Store(true)
				time.Sleep(time.Millisecond) // let a helper pick indices up
				return
			}
			panic("injected")
		})
	})
}

func TestDoChunksForwardsHelperPanic(t *testing.T) {
	withWorkers(t, 4, func() {
		defer func() {
			if recover() == nil {
				t.Fatal("helper panic was swallowed")
			}
		}()
		caller := goid()
		started := make(chan struct{})
		var once sync.Once
		DoChunks(64, 4, func(lo, hi int) {
			if goid() != caller {
				once.Do(func() { close(started) })
				panic("injected")
			}
			// The caller takes back every chunk no helper has started by
			// the time it runs out of its own, so hold its first chunk
			// until one has.
			select {
			case <-started:
			case <-time.After(10 * time.Second):
			}
		})
	})
}

func TestDoCallerPanicPropagates(t *testing.T) {
	withWorkers(t, 1, func() {
		defer func() {
			if recover() == nil {
				t.Fatal("caller panic must propagate")
			}
		}()
		Do(4, 1, func(int) { panic("caller") })
	})
}

// goid distinguishes the calling goroutine from pool helpers in tests.
// (A per-test atomic flag set before Do would race with helper startup;
// comparing goroutine identity is exact.)
func goid() string {
	buf := make([]byte, 64)
	n := runtime.Stack(buf, false)
	return string(buf[:n:n][:16])
}

// spin keeps the calling goroutine busy for d.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// BenchmarkForkJoin prices a parallel section on a 2-wide pool: an empty
// one (the hand-off and the join alone), one of two 10 µs halves, and
// the same two halves run back to back on the caller. The pool pays for
// itself on a section when halves beats serial.
func BenchmarkForkJoin(b *testing.B) {
	old := Workers()
	defer SetWorkers(old)
	SetWorkers(2)
	half := func(int) { spin(10 * time.Microsecond) }
	b.Run("empty", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Do(2, 0, func(int) {})
		}
	})
	b.Run("halves", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Do(2, 0, half)
		}
	})
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			half(0)
			half(1)
		}
	})
}
