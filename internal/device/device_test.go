package device

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mgsilt/internal/fault"
)

// ok builds a trivially succeeding job for tests.
func ok(pixels int) Job {
	return Job{Pixels: pixels, Work: func(context.Context, int) error { return nil }}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(0, 0); err == nil {
		t.Fatal("zero devices must fail")
	}
	if _, err := NewCluster(2, -1); err == nil {
		t.Fatal("negative memory must fail")
	}
	c, err := NewCluster(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if c.Devices() != 3 || c.MemPixels() != 100 {
		t.Fatalf("cluster %d devices, %d mem", c.Devices(), c.MemPixels())
	}
}

func TestFits(t *testing.T) {
	c, _ := NewCluster(1, 100)
	if !c.Fits(100) || c.Fits(101) {
		t.Fatal("Fits boundary wrong")
	}
	u, _ := NewCluster(1, 0)
	if !u.Fits(1 << 40) {
		t.Fatal("unlimited memory must fit anything")
	}
}

func TestRunExecutesAllJobs(t *testing.T) {
	c, _ := NewCluster(3, 0)
	var count atomic.Int32
	jobs := make([]Job, 10)
	for i := range jobs {
		jobs[i] = Job{Pixels: 1, Work: func(context.Context, int) error {
			count.Add(1)
			return nil
		}}
	}
	if err := c.RunCtx(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 10 {
		t.Fatalf("ran %d of 10 jobs", count.Load())
	}
	if st := c.Stats(); st.Jobs != 10 {
		t.Fatalf("stats counted %d jobs", st.Jobs)
	}
}

func TestRunConcurrencyBoundedByDevices(t *testing.T) {
	const devices = 2
	c, _ := NewCluster(devices, 0)
	var cur, peak atomic.Int32
	var mu sync.Mutex
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Pixels: 1, Work: func(context.Context, int) error {
			n := cur.Add(1)
			mu.Lock()
			if n > peak.Load() {
				peak.Store(n)
			}
			mu.Unlock()
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
			return nil
		}}
	}
	if err := c.RunCtx(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	// Real concurrency is bounded by the device count (it is further
	// bounded by GOMAXPROCS, so no lower bound can be asserted here —
	// the virtual schedule is what models parallelism).
	if p := peak.Load(); p > devices {
		t.Fatalf("observed %d concurrent jobs on %d devices", p, devices)
	}
}

func TestVirtualScheduleSpeedup(t *testing.T) {
	// 8 equal jobs on 1 vs 4 devices: the virtual makespan must shrink
	// by ~4x regardless of how many real cores executed them.
	mkJobs := func() []Job {
		jobs := make([]Job, 8)
		for i := range jobs {
			jobs[i] = Job{Pixels: 1, Work: func(context.Context, int) error {
				time.Sleep(4 * time.Millisecond)
				return nil
			}}
		}
		return jobs
	}
	c1, _ := NewCluster(1, 0)
	if err := c1.RunCtx(context.Background(), mkJobs()); err != nil {
		t.Fatal(err)
	}
	c4, _ := NewCluster(4, 0)
	if err := c4.RunCtx(context.Background(), mkJobs()); err != nil {
		t.Fatal(err)
	}
	t1 := c1.Stats().SimElapsed
	t4 := c4.Stats().SimElapsed
	speedup := t1.Seconds() / t4.Seconds()
	if speedup < 2.5 || speedup > 6 {
		t.Fatalf("virtual speedup %.2f (1 dev %v, 4 dev %v), want ≈4", speedup, t1, t4)
	}
	// The 4-device schedule packs 8 jobs as two waves: makespan ≈ 2 jobs.
	if st := c4.Stats(); st.MaxBusy > st.TotalBusy || st.SimElapsed > st.TotalBusy {
		t.Fatalf("inconsistent accounting %+v", st)
	}
}

func TestRunRejectsOversizedJob(t *testing.T) {
	c, _ := NewCluster(1, 10)
	ran := false
	err := c.RunCtx(context.Background(), []Job{{Pixels: 11, Work: func(context.Context, int) error { ran = true; return nil }}})
	if err == nil {
		t.Fatal("expected memory error")
	}
	if ran {
		t.Fatal("oversized job must not run")
	}
}

func TestRunPropagatesWorkErrors(t *testing.T) {
	c, _ := NewCluster(2, 0)
	boom := errors.New("boom")
	var good atomic.Int32
	err := c.RunCtx(context.Background(), []Job{
		{Pixels: 1, Work: func(context.Context, int) error { return boom }},
		{Pixels: 1, Work: func(context.Context, int) error { good.Add(1); return nil }},
		{Pixels: 1, Work: func(context.Context, int) error { good.Add(1); return nil }},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	if good.Load() != 2 {
		t.Fatalf("healthy jobs did not run: %d", good.Load())
	}
}

func TestStatsAccounting(t *testing.T) {
	c, _ := NewCluster(2, 0)
	c.TransferPerMPixel = 10 * time.Millisecond
	jobs := []Job{
		{Pixels: 1 << 20, Work: func(context.Context, int) error { time.Sleep(3 * time.Millisecond); return nil }},
		{Pixels: 1 << 20, Work: func(context.Context, int) error { time.Sleep(3 * time.Millisecond); return nil }},
	}
	if err := c.RunCtx(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.TotalBusy < 6*time.Millisecond {
		t.Fatalf("total busy %v too small", st.TotalBusy)
	}
	if st.MaxBusy > st.TotalBusy {
		t.Fatal("max busy exceeds total")
	}
	if st.Transfer < 20*time.Millisecond {
		t.Fatalf("transfer %v, want ≥ 2·(2^20/1e6)·10ms", st.Transfer)
	}
}

// Add sums every field except MaxBusy, which takes the busier pool; Sub
// is the field-by-field delta from an earlier snapshot.
func TestStatsAddSub(t *testing.T) {
	a := Stats{Jobs: 3, TotalBusy: 5 * time.Second, MaxBusy: 2 * time.Second, Transfer: time.Second,
		SimElapsed: 4 * time.Second, Retries: 1, Quarantined: 1}
	b := Stats{Jobs: 7, TotalBusy: 6 * time.Second, MaxBusy: 3 * time.Second, Transfer: 2 * time.Second,
		SimElapsed: time.Second, Retries: 2}
	cases := []struct {
		name string
		got  Stats
		want Stats
	}{
		{"add", a.Add(b), Stats{Jobs: 10, TotalBusy: 11 * time.Second, MaxBusy: 3 * time.Second,
			Transfer: 3 * time.Second, SimElapsed: 5 * time.Second, Retries: 3, Quarantined: 1}},
		{"add keeps the larger max", b.Add(a).Add(Stats{MaxBusy: time.Second}), a.Add(b)},
		{"add zero", a.Add(Stats{}), a},
		{"sub", a.Add(b).Sub(a), Stats{Jobs: 7, TotalBusy: 6 * time.Second, MaxBusy: time.Second,
			Transfer: 2 * time.Second, SimElapsed: time.Second, Retries: 2}},
		{"sub itself", a.Sub(a), Stats{}},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, tc.got, tc.want)
		}
	}
}

func TestDeviceIndexInRange(t *testing.T) {
	c, _ := NewCluster(3, 0)
	var bad atomic.Int32
	jobs := make([]Job, 9)
	for i := range jobs {
		jobs[i] = Job{Pixels: 1, Work: func(_ context.Context, dev int) error {
			if dev < 0 || dev >= 3 {
				bad.Add(1)
			}
			return nil
		}}
	}
	if err := c.RunCtx(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if bad.Load() != 0 {
		t.Fatal("device index out of range")
	}
}

func TestTransferChargedToTimeline(t *testing.T) {
	c, _ := NewCluster(1, 0)
	c.TransferPerMPixel = 100 * time.Millisecond
	err := c.RunCtx(context.Background(), []Job{ok(1 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	// 2^20 pixels ≈ 1.05 MPx → ≈105ms of staging on the timeline even
	// though the job itself was instant.
	if st.SimElapsed < 100*time.Millisecond {
		t.Fatalf("transfer not charged to the virtual clock: %v", st.SimElapsed)
	}
	if st.Transfer < 100*time.Millisecond {
		t.Fatalf("transfer counter %v", st.Transfer)
	}
}

func TestSimElapsedAccumulatesAcrossRuns(t *testing.T) {
	c, _ := NewCluster(2, 0)
	job := Job{Pixels: 1, Work: func(context.Context, int) error { time.Sleep(2 * time.Millisecond); return nil }}
	if err := c.RunCtx(context.Background(), []Job{job, job}); err != nil {
		t.Fatal(err)
	}
	first := c.Stats().SimElapsed
	if err := c.RunCtx(context.Background(), []Job{job}); err != nil {
		t.Fatal(err)
	}
	second := c.Stats().SimElapsed
	if second <= first {
		t.Fatalf("virtual clock did not advance: %v then %v", first, second)
	}
}

// --- Fault injection, retries and quarantine ---

func TestTransientFaultsRetriedToSuccess(t *testing.T) {
	c, _ := NewCluster(2, 0)
	// Fail the first attempt of every job; attempt ≥ 1 succeeds.
	c.Injector = fault.InjectorFunc(func(k fault.Key) error {
		if k.Attempt == 0 {
			return &fault.Error{Key: k}
		}
		return nil
	})
	var runs atomic.Int32
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = Job{Pixels: 1, Work: func(context.Context, int) error {
			runs.Add(1)
			return nil
		}}
	}
	if err := c.RunCtx(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	// The injected failure pre-empts Work, so Work runs exactly once per
	// job (on the successful second attempt).
	if runs.Load() != 6 {
		t.Fatalf("work ran %d times, want 6", runs.Load())
	}
	st := c.Stats()
	if st.Retries != 6 {
		t.Fatalf("stats recorded %d retries, want 6", st.Retries)
	}
	if st.Jobs != 6 {
		t.Fatalf("stats counted %d completed jobs", st.Jobs)
	}
}

func TestTransientFaultExhaustsAttempts(t *testing.T) {
	c, _ := NewCluster(2, 0)
	c.Retry = &fault.Retry{MaxAttempts: 3}
	c.Injector = fault.InjectorFunc(func(k fault.Key) error {
		return &fault.Error{Key: k}
	})
	err := c.RunCtx(context.Background(), []Job{ok(1)})
	if err == nil || !fault.Transient(err) {
		t.Fatalf("want transient exhaustion error, got %v", err)
	}
	if st := c.Stats(); st.Retries != 2 {
		t.Fatalf("3 attempts must record 2 retries, got %d", st.Retries)
	}
}

func TestHardFaultQuarantinesDevice(t *testing.T) {
	c, _ := NewCluster(3, 0)
	// The first attempt of job 0 hard-fails whichever device executes
	// it; everything else is healthy, so the job must complete on a
	// surviving device and exactly one device ends up quarantined.
	c.Injector = fault.InjectorFunc(func(k fault.Key) error {
		if k.Unit == 0 && k.Attempt == 0 {
			return &fault.Error{Key: k, IsHard: true}
		}
		return nil
	})
	var runs atomic.Int32
	jobs := make([]Job, 12)
	for i := range jobs {
		jobs[i] = Job{Pixels: 1, Work: func(context.Context, int) error {
			runs.Add(1)
			return nil
		}}
	}
	if err := c.RunCtx(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 12 {
		t.Fatalf("work ran %d times, want 12", runs.Load())
	}
	st := c.Stats()
	if st.Quarantined != 1 {
		t.Fatalf("quarantined %d devices, want 1", st.Quarantined)
	}
	if st.Retries != 1 {
		t.Fatalf("hard fault must re-dispatch job 0 once, got %d retries", st.Retries)
	}
	// The next batch must avoid the quarantined device entirely.
	c.mu.Lock()
	qdev := -1
	for d, q := range c.quarantined {
		if q {
			qdev = d
		}
	}
	c.mu.Unlock()
	var onQuar atomic.Int32
	next := make([]Job, 6)
	for i := range next {
		next[i] = Job{Pixels: 1, Work: func(_ context.Context, dev int) error {
			if dev == qdev {
				onQuar.Add(1)
			}
			return nil
		}}
	}
	if err := c.RunCtx(context.Background(), next); err != nil {
		t.Fatal(err)
	}
	if onQuar.Load() != 0 {
		t.Fatalf("quarantined device %d executed %d jobs", qdev, onQuar.Load())
	}
	// Revive restores the full pool.
	c.Revive()
	if c.Stats().Quarantined != 0 {
		t.Fatalf("revive left %d quarantined", c.Stats().Quarantined)
	}
}

func TestAllDevicesLostReturnsErrNoDevices(t *testing.T) {
	c, _ := NewCluster(2, 0)
	c.Retry = &fault.Retry{MaxAttempts: 10}
	c.Injector = fault.InjectorFunc(func(k fault.Key) error {
		return &fault.Error{Key: k, IsHard: true}
	})
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = ok(1)
	}
	err := c.RunCtx(context.Background(), jobs)
	if err == nil {
		t.Fatal("losing the whole pool must fail the batch")
	}
	if c.Stats().Quarantined != 2 {
		t.Fatalf("quarantined %d of 2 devices", c.Stats().Quarantined)
	}
	// A subsequent batch on the dead pool fails immediately.
	if err := c.RunCtx(context.Background(), []Job{ok(1)}); !errors.Is(err, ErrNoDevices) {
		t.Fatalf("dead pool returned %v, want ErrNoDevices", err)
	}
	c.Revive()
	c.Injector = nil
	if err := c.RunCtx(context.Background(), []Job{ok(1)}); err != nil {
		t.Fatalf("revived pool failed: %v", err)
	}
}

func TestInjectedPanicRecoveredAsRetryable(t *testing.T) {
	c, _ := NewCluster(2, 0)
	var calls atomic.Int32
	// Work panics with an injected fault on its first call, then
	// succeeds.
	jobs := []Job{{Pixels: 1, Work: func(context.Context, int) error {
		if calls.Add(1) == 1 {
			panic(fault.Panic{Err: &fault.Error{}})
		}
		return nil
	}}}
	if err := c.RunCtx(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 {
		t.Fatalf("work called %d times, want 2", calls.Load())
	}
	if st := c.Stats(); st.Retries != 1 {
		t.Fatalf("retries %d, want 1", st.Retries)
	}
}

func TestGenuinePanicPropagates(t *testing.T) {
	// Exercised on runWork directly: a genuine panic crosses the job
	// boundary (and would crash the process, as a real bug should),
	// unlike an injected fault.Panic.
	defer func() {
		if recover() == nil {
			t.Fatal("genuine panic must not be swallowed")
		}
	}()
	_ = runWork(context.Background(), Job{Work: func(context.Context, int) error { panic("genuine bug") }}, 0)
}

func TestRunCtxCancelledMidBatch(t *testing.T) {
	c, _ := NewCluster(2, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Pixels: 1, Work: func(ctx context.Context, _ int) error {
			started.Add(1)
			cancel()
			<-ctx.Done() // in-flight work observes the batch context
			return ctx.Err()
		}}
	}
	err := c.RunCtx(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch returned %v", err)
	}
	if started.Load() == 0 {
		t.Fatal("no job ever started")
	}
}

// TestRunCtxCancelDoesNotLeakGoroutines is the regression test for the
// mid-transfer cancellation leak: RunCtx must join every dispatcher and
// its cancellation watcher before returning.
func TestRunCtxCancelDoesNotLeakGoroutines(t *testing.T) {
	c, _ := NewCluster(4, 0)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		jobs := make([]Job, 16)
		for j := range jobs {
			jobs[j] = Job{Pixels: 1, Work: func(ctx context.Context, _ int) error {
				cancel()
				<-ctx.Done()
				return ctx.Err()
			}}
		}
		_ = c.RunCtx(ctx, jobs)
		cancel()
	}
	// Allow stragglers (GC, timers) to settle before counting.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d across cancelled batches", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSeededChaosBatchIsDeterministic(t *testing.T) {
	run := func() (Stats, error) {
		c, _ := NewCluster(4, 0)
		c.Injector = fault.NewSeeded(99, fault.Rates{Transient: 0.3})
		c.Retry = &fault.Retry{MaxAttempts: 6}
		jobs := make([]Job, 32)
		for i := range jobs {
			jobs[i] = ok(100)
		}
		err := c.RunCtx(context.Background(), jobs)
		return c.Stats(), err
	}
	s1, err1 := run()
	s2, err2 := run()
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("chaos outcome diverged: %v vs %v", err1, err2)
	}
	if s1.Retries != s2.Retries {
		t.Fatalf("retry counts diverged: %d vs %d", s1.Retries, s2.Retries)
	}
	if s1.Retries == 0 {
		t.Fatal("transient rate 0.3 over 32 jobs must retry at least once")
	}
}
