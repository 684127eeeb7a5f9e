package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// engage runs sections until the pool's first helper has worked inside
// one, so that it is resident and inside its spin budget afterwards.
func engage(t *testing.T) {
	t.Helper()
	caller := goid()
	var helped atomic.Bool
	eventually(t, "a helper to take part in a section", func() bool {
		Do(2, 0, func(int) {
			if goid() != caller {
				helped.Store(true)
				return
			}
			for start := time.Now(); !helped.Load() && time.Since(start) < 10*time.Millisecond; {
				runtime.Gosched()
			}
		})
		return helped.Load()
	})
}

func cpuTime(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatalf("getrusage: %v", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestHelperParksPastBudget: a helper keeps polling for spinBudget after
// its last task and then parks, after which an idle process burns no CPU.
func TestHelperParksPastBudget(t *testing.T) {
	withWorkers(t, 2, func() {
		h := cur.Load().helpers[0]
		engage(t)
		start := time.Now()
		eventually(t, "the helper to park", h.wake.parked.Load)
		// Generous: the scheduler owes the test goroutine nothing.
		if d := time.Since(start); d > spinBudget+100*time.Millisecond {
			t.Fatalf("helper parked %v after its last task, budget %v", d, spinBudget)
		}
		before := cpuTime(t)
		time.Sleep(200 * time.Millisecond)
		if burnt := cpuTime(t) - before; burnt > 40*time.Millisecond {
			t.Fatalf("idle process burnt %v of CPU in 200ms", burnt)
		}
		// A parked helper still serves the next section.
		engage(t)
	})
}

// TestSetWorkersRetiresHelpers: every resize leaves exactly width-1
// helper goroutines behind, whatever the previous width was.
func TestSetWorkersRetiresHelpers(t *testing.T) {
	old := Workers()
	defer SetWorkers(old)
	SetWorkers(1)
	var base int
	eventually(t, "the goroutine count to settle", func() bool {
		n := runtime.NumGoroutine()
		settled := n == base
		base = n
		return settled
	})
	for _, w := range []int{8, 3, 0, 5, 1} {
		got := SetWorkers(w)
		if w > 0 && got != w {
			t.Fatalf("SetWorkers(%d) = %d", w, got)
		}
		eventually(t, "old helpers to exit", func() bool { return runtime.NumGoroutine() == base+got-1 })
		if got > 1 {
			engage(t)
		}
	}
}

// TestSetWorkersRetiresHelpersInFlight resizes the pool while its
// helpers are inside a section: they finish it, then exit.
func TestSetWorkersRetiresHelpersInFlight(t *testing.T) {
	old := Workers()
	defer SetWorkers(old)
	SetWorkers(1)
	base := runtime.NumGoroutine()
	SetWorkers(4)
	var inside atomic.Int32
	release := make(chan struct{})
	var ran atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		Do(4, 0, func(int) {
			inside.Add(1)
			<-release
			ran.Add(1)
		})
	}()
	eventually(t, "helpers to join the section", func() bool { return inside.Load() >= 2 })
	SetWorkers(1)
	close(release)
	<-done
	if got := ran.Load(); got != 4 {
		t.Fatalf("%d of 4 indices ran across the resize", got)
	}
	eventually(t, "retired helpers to exit", func() bool { return runtime.NumGoroutine() <= base })
}

// TestCallerTakesBackUnstartedWork installs a pool whose helper never
// runs: the caller must finish the whole section itself instead of
// waiting for it, and leave the helper free.
func TestCallerTakesBackUnstartedWork(t *testing.T) {
	old := cur.Load()
	defer cur.Store(old)
	h := &helper{wake: newGate(), done: newGate()}
	cur.Store(&pool{width: 2, helpers: []*helper{h}})

	caller := goid()
	check := func(name string, covered []int32) {
		t.Helper()
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("%s: index %d ran %d times", name, i, c)
			}
		}
		if h.claimed.Load() || h.slot.Load() != nil {
			t.Fatalf("%s: stalled helper left claimed=%v slot=%p", name, h.claimed.Load(), h.slot.Load())
		}
	}
	covered := make([]int32, 64)
	DoChunks(len(covered), 0, func(lo, hi int) {
		if goid() != caller {
			t.Error("chunk ran off the caller")
		}
		for i := lo; i < hi; i++ {
			covered[i]++
		}
	})
	check("DoChunks", covered)
	clear(covered)
	Do(len(covered), 0, func(i int) { covered[i]++ })
	check("Do", covered)
}

// TestSpanHandsEveryItemOutOnce: an owner taking from the front and a
// second goroutine taking from the back between them get every item of
// the span exactly once, whatever the grain.
func TestSpanHandsEveryItemOutOnce(t *testing.T) {
	for _, grain := range []int{1, 3, 16, 1000} {
		const lo, hi = 5, 777
		var sp span
		sp.set(lo, hi)
		counts := make([]int32, hi)
		var wg sync.WaitGroup
		for _, back := range []bool{false, true} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					a, b, ok := sp.take(grain, back)
					if !ok {
						return
					}
					if b-a > grain || a < lo || b > hi || a >= b {
						t.Errorf("grain %d: hand-out [%d,%d)", grain, a, b)
					}
					for i := a; i < b; i++ {
						atomic.AddInt32(&counts[i], 1)
					}
					runtime.Gosched()
				}
			}()
		}
		wg.Wait()
		for i, c := range counts {
			if (i >= lo) != (c == 1) || c > 1 {
				t.Fatalf("grain %d: item %d handed out %d times", grain, i, c)
			}
		}
	}
}

// TestFastParticipantTakesFromSlowShare holds the helper inside its
// first hand-out: the caller must run everything else, the rest of the
// helper's share included, instead of idling at the join.
func TestFastParticipantTakesFromSlowShare(t *testing.T) {
	withWorkers(t, 2, func() {
		const n = 64
		for _, tc := range []struct {
			name    string
			helpers int // items the held helper keeps
			section func(fn func(lo, hi int))
		}{
			{"DoChunks", n / 2 / shares, func(fn func(lo, hi int)) { DoChunks(n, 0, fn) }},
			{"Do", 1, func(fn func(lo, hi int)) { Do(n, 0, func(i int) { fn(i, i+1) }) }},
		} {
			engage(t)
			caller := goid()
			var onHelper, onCaller atomic.Int32
			release := make(chan struct{})
			tc.section(func(lo, hi int) {
				if goid() != caller {
					onHelper.Add(int32(hi - lo))
					<-release
					return
				}
				for start := time.Now(); onHelper.Load() == 0 && time.Since(start) < 5*time.Second; {
					runtime.Gosched()
				}
				if onCaller.Add(int32(hi-lo))+onHelper.Load() == n {
					close(release)
				}
			})
			if got := int(onHelper.Load()); got != tc.helpers {
				t.Fatalf("%s: the held helper ran %d items, want %d", tc.name, got, tc.helpers)
			}
			if got := int(onCaller.Load()); got != n-tc.helpers {
				t.Fatalf("%s: the caller ran %d items, want %d", tc.name, got, n-tc.helpers)
			}
		}
	})
}

// TestEnterWithholdsHelpers: every goroutine between Enter and Leave
// beyond the first takes one helper out of the pool.
func TestEnterWithholdsHelpers(t *testing.T) {
	withWorkers(t, 3, func() {
		helpers := func() int {
			s := fork(2)
			if s == nil {
				return 0
			}
			n := len(s.helpers)
			s.run() // no items shared out: the helpers are released at once
			return n
		}
		for entered, want := range []int{2, 2, 1, 0, 0} {
			if got := helpers(); got != want {
				t.Fatalf("%d entered: a section claimed %d helpers, want %d", entered, got, want)
			}
			Enter()
		}
		for range 5 {
			Leave()
		}
		if got := helpers(); got != 2 {
			t.Fatalf("after Leave a section claimed %d helpers, want 2", got)
		}
	})
}

// TestEnterWaitsOutTheSectionInFlight: the helper an Enter withholds may
// be inside a section; Enter returns only once it has left it, so the
// width bound holds from then on.
func TestEnterWaitsOutTheSectionInFlight(t *testing.T) {
	withWorkers(t, 2, func() {
		caller := make(chan string, 1)
		var helperIn atomic.Bool
		release := make(chan struct{})
		sectionDone := make(chan struct{})
		go func() {
			defer close(sectionDone)
			caller <- goid()
			me := goid()
			Do(2, 0, func(int) {
				if goid() != me {
					helperIn.Store(true)
					<-release
					return
				}
				for !helperIn.Load() {
					runtime.Gosched()
				}
			})
		}()
		<-caller
		eventually(t, "the helper to enter the section", helperIn.Load)

		Enter() // the first: the section's own caller, nothing withheld
		defer Leave()
		entered := make(chan struct{})
		go func() {
			Enter()
			close(entered)
		}()
		defer Leave()
		select {
		case <-entered:
			t.Fatal("Enter returned while the withheld helper was inside a section")
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		<-sectionDone
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("Enter never returned after the section finished")
		}
		if s := fork(1); s != nil {
			s.run()
			t.Fatal("a section claimed the withheld helper")
		}
	})
}

// TestEnterParksBehindALongSection: a withheld helper may hold a whole
// tile solve — a lane of a packed device job — so an Enter that waits
// on it parks past spinBudget instead of burning a core, and a release
// wakes every Enter parked on it: here two, the second arriving after a
// Leave made the same helper the one to withhold again.
func TestEnterParksBehindALongSection(t *testing.T) {
	withWorkers(t, 2, func() {
		var helperIn atomic.Bool
		release := make(chan struct{})
		sectionDone := make(chan struct{})
		go func() { // a section whose caller never entered
			defer close(sectionDone)
			me := goid()
			Do(2, 0, func(int) {
				if goid() != me {
					helperIn.Store(true)
					<-release
					return
				}
				for !helperIn.Load() {
					runtime.Gosched()
				}
			})
		}()
		eventually(t, "the helper to enter the section", helperIn.Load)

		Enter() // the first: nothing withheld
		waiter := func() chan struct{} {
			done := make(chan struct{})
			go func() {
				Enter()
				close(done)
			}()
			return done
		}
		first := waiter()
		eventually(t, "the first Enter to park", func() bool { return parkedN.Load() == 1 })
		Leave() // the waiter is now the first entered; the next withholds the same helper
		second := waiter()
		eventually(t, "the second Enter to park", func() bool { return parkedN.Load() == 2 })

		before := cpuTime(t)
		time.Sleep(200 * time.Millisecond)
		if burnt := cpuTime(t) - before; burnt > 40*time.Millisecond {
			t.Fatalf("two Enters waiting on a section burnt %v of CPU in 200ms", burnt)
		}
		close(release)
		<-sectionDone
		for _, done := range []chan struct{}{first, second} {
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("a parked Enter never returned after the section finished")
			}
		}
		Leave()
		Leave()
	})
}

// TestGateNeverLosesAWake ping-pongs two goroutines through a pair of
// gates: a lost wake-up hangs the test, a stale token fails the count.
func TestGateNeverLosesAWake(t *testing.T) {
	const rounds = 20000
	ping, pong := newGate(), newGate()
	var turn atomic.Int32 // odd: the echo goroutine's move
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i < 2*rounds; i += 2 {
			ping.wait(func() bool { return int(turn.Load()) == i })
			turn.Add(1)
			pong.open()
		}
	}()
	for i := 0; i < 2*rounds; i += 2 {
		turn.Add(1)
		ping.open()
		pong.wait(func() bool { return int(turn.Load()) == i+2 })
	}
	wg.Wait()
	if got := turn.Load(); got != 2*rounds {
		t.Fatalf("turn = %d after %d rounds", got, rounds)
	}
	if len(ping.ch)+len(pong.ch) != 0 {
		t.Fatal("a wake token was left behind")
	}
}

// TestLimit: one participant per Grain of work, between one (stay on the
// caller) and the pool width.
func TestLimit(t *testing.T) {
	withWorkers(t, 4, func() {
		for elems, want := range map[int]int{0: 1, Grain - 1: 1, 2*Grain - 1: 1, 2 * Grain: 2, 3*Grain + 5: 3, 1 << 20: 4} {
			if got := Limit(elems); got != want {
				t.Errorf("4 workers: Limit(%d) = %d, want %d", elems, got, want)
			}
		}
	})
	withWorkers(t, 1, func() {
		if got := Limit(1 << 20); got != 1 {
			t.Errorf("1 worker: Limit = %d, want 1", got)
		}
	})
}

// TestSweepLimit: the flow-side gate is Limit at SweepGrain — a 128²
// clip's window sections (9 × 64²) stay on the caller, a 256² clip's
// whole-clip filters fan out over two.
func TestSweepLimit(t *testing.T) {
	withWorkers(t, 4, func() {
		for elems, want := range map[int]int{0: 1, 9 * 64 * 64: 1, 2*SweepGrain - 1: 1, 256 * 256: 2, 3 * SweepGrain: 3, 1 << 24: 4} {
			if got := SweepLimit(elems); got != want {
				t.Errorf("4 workers: SweepLimit(%d) = %d, want %d", elems, got, want)
			}
		}
	})
	withWorkers(t, 1, func() {
		if got := SweepLimit(1 << 24); got != 1 {
			t.Errorf("1 worker: SweepLimit = %d, want 1", got)
		}
	})
}
