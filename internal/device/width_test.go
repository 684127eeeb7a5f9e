package device

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"mgsilt/internal/parallel"
)

// goid identifies the calling goroutine, to tell a pool helper from the
// dispatcher that called into the pool.
func goid() string {
	buf := make([]byte, 64)
	return string(buf[:runtime.Stack(buf, false)][:16])
}

func busy(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// TestWidthBoundCountsDispatchers runs two devices on a 2-wide pool with
// jobs that fan out: the goroutines computing at once — dispatchers
// inside Work plus pool helpers inside a section — must never exceed the
// pool width, which a helper working beside two dispatchers would.
func TestWidthBoundCountsDispatchers(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	parallel.SetWorkers(2)
	c, _ := NewCluster(2, 0)
	var computing, peak atomic.Int32
	enter := func() {
		n := computing.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
	}
	jobs := make([]Job, 8)
	for j := range jobs {
		jobs[j] = Job{Pixels: 1, Work: func(context.Context, int) error {
			enter()
			defer computing.Add(-1)
			me := goid()
			for s := 0; s < 50; s++ {
				parallel.Do(2, 0, func(int) {
					if goid() != me {
						enter()
						defer computing.Add(-1)
					}
					busy(20 * time.Microsecond)
				})
			}
			return nil
		}}
	}
	if err := c.RunCtx(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if p, w := peak.Load(), int32(parallel.Workers()); p > w {
		t.Fatalf("%d goroutines computed at once on a %d-wide pool", p, w)
	}
}

// TestLastJobGetsTheHelperBack: once a batch is down to one running job
// the dispatcher that drained no longer holds a helper, so the job's own
// sections fan out.
func TestLastJobGetsTheHelperBack(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	parallel.SetWorkers(2)
	c, _ := NewCluster(2, 0)
	long, short := make(chan struct{}), make(chan struct{})
	jobs := []Job{
		{Pixels: 1, Work: func(context.Context, int) error {
			close(long)
			<-short
			// The other dispatcher takes a moment to leave its attempt.
			me := goid()
			var helped atomic.Bool
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline) && !helped.Load(); {
				parallel.Do(2, 0, func(int) {
					if goid() != me {
						helped.Store(true)
					}
					busy(50 * time.Microsecond)
				})
			}
			if !helped.Load() {
				return errors.New("no helper ever joined the last job's sections")
			}
			return nil
		}},
		{Pixels: 1, Work: func(context.Context, int) error {
			// Both jobs run: the pool must have no helper to give.
			<-long
			me := goid()
			for s := 0; s < 20; s++ {
				parallel.Do(2, 0, func(int) {
					if goid() != me {
						t.Error("a helper worked beside two running jobs")
					}
				})
			}
			close(short)
			return nil
		}},
	}
	if err := c.RunCtx(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
}
