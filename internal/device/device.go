// Package device models the accelerator pool the paper runs on: GPUs
// with bounded memory, host-staged transfers between them (the paper's
// cluster lacks GPU-direct links), and per-device serial execution.
//
// The paper's parallelism claims are scheduling claims — which tiles
// may run concurrently in each phase of the multigrid-Schwarz flow —
// so the cluster reproduces exactly the quantity being measured: each
// batch of jobs is list-scheduled onto virtual device timelines using
// the jobs' measured compute durations, and the batch's simulated
// makespan advances a virtual clock. Turn-around times derived from
// that clock are deterministic in shape regardless of how many real
// CPU cores the host happens to have. Memory capacity gates what fits
// on one device, motivating the coarse-grid downsampling of
// Algorithm 1, and the transfer model charges host staging per job.
//
// Resilience: production accelerator pools treat flaky devices and
// stragglers as routine. When a fault.Injector is installed the
// cluster consults it at the device.run and device.transfer sites of
// every job attempt; transient failures are retried (on any surviving
// device) under the cluster's fault.Retry policy with backoff charged
// to the simulated timeline, and a hard device failure quarantines the
// device from the pool for the cluster's lifetime (see Revive).
// Injected panics escaping a job's compute (the litho.aerial site) are
// recovered at the job boundary and classified like any other injected
// error, so a chaos run can never crash the process.
package device

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"mgsilt/internal/fault"
	"mgsilt/internal/parallel"
)

// ErrNoDevices is returned when every device of the pool has been
// quarantined by hard faults and jobs remain unexecuted.
var ErrNoDevices = errors.New("device: no devices available (all quarantined)")

// Cluster is a pool of simulated accelerators.
type Cluster struct {
	n         int
	memPixels int // per-device capacity in mask pixels; 0 = unlimited

	// TransferPerMPixel is the simulated host-staging cost of moving
	// one megapixel of tile data to and from a device. It is charged
	// to the job's device timeline, not slept.
	TransferPerMPixel time.Duration

	// Injector, when non-nil, is consulted at the device.run and
	// device.transfer sites of every job attempt. Set it before the
	// first RunCtx; it must not be swapped while a batch is in flight.
	Injector fault.Injector
	// Retry tunes the per-job retry policy (attempts, backoff shape,
	// budget, per-attempt timeout). nil uses the fault.Retry defaults.
	// Share by pointer; the budget counter is part of the value.
	Retry *fault.Retry

	mu          sync.Mutex
	busy        []time.Duration // cumulative simulated busy per device
	elapsed     time.Duration   // virtual clock: Σ batch makespans
	transfer    time.Duration
	jobs        int
	retries     int    // retry attempts performed (re-dispatches)
	quarantined []bool // per-device hard-failure flags
	nQuar       int
	batches     int64 // batch sequence number (fault.Key.Batch)
}

// Job is one unit of device work: a tile optimisation.
type Job struct {
	// Pixels is the working-set size, checked against device memory
	// and charged to the transfer model.
	Pixels int
	// Work runs on the assigned device. ctx carries the batch's
	// cancellation plus, when the cluster's Retry policy sets a
	// per-attempt timeout, this attempt's deadline; long-running Work
	// should observe it. dev is the executing device index, provided
	// for logging/affinity.
	Work func(ctx context.Context, dev int) error
}

// NewCluster builds a pool of n devices with the given per-device
// memory capacity in pixels (0 = unlimited).
func NewCluster(n, memPixels int) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("device: cluster needs at least one device, got %d", n)
	}
	if memPixels < 0 {
		return nil, fmt.Errorf("device: negative memory capacity %d", memPixels)
	}
	return &Cluster{n: n, memPixels: memPixels, busy: make([]time.Duration, n), quarantined: make([]bool, n)}, nil
}

// Devices returns the number of devices in the pool.
func (c *Cluster) Devices() int { return c.n }

// MemPixels returns the per-device capacity (0 = unlimited).
func (c *Cluster) MemPixels() int { return c.memPixels }

// Revive returns every quarantined device to the pool — the fresh
// hardware lease a scheduler grants a new job.
func (c *Cluster) Revive() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.quarantined {
		c.quarantined[i] = false
	}
	c.nQuar = 0
}

// Fits reports whether a working set of the given pixel count fits on
// one device. Algorithm 1 downsamples coarse tiles until this holds.
func (c *Cluster) Fits(pixels int) bool {
	return c.memPixels == 0 || pixels <= c.memPixels
}

// unit is one pending attempt of one job.
type unit struct {
	idx     int
	attempt int
}

// outcome classifies one executed attempt.
type outcome int

const (
	oDone  outcome = iota // job finished (success)
	oFatal                // job failed permanently (non-retryable)
	oRetry                // transient failure: candidate for re-dispatch
	oHard                 // hard device failure: quarantine + re-dispatch
)

// RunCtx executes one barrier-synchronised batch of jobs, then
// advances the virtual clock by the batch's simulated makespan:
// measured job durations are list-scheduled (in submission order,
// earliest-free device first) onto the pool's timelines, exactly the
// greedy schedule a work-stealing GPU pool produces for homogeneous
// tile solves.
//
// Real execution uses min(live devices, parallel.Workers()) dispatch
// goroutines — the same process-wide pool width that bounds the
// kernel-level convolution fan-out inside each tile solve — and every
// attempt registers with the pool while its Work runs (parallel.Enter),
// so each one running beyond the first takes a helper out of the pool:
// stacking tile-level and kernel-level parallelism cannot oversubscribe
// the host, and when a batch is down to its last running job that job's
// inner levels get the helpers back. The
// reported timing comes from the virtual schedule either way. Jobs
// whose working set exceeds device memory fail without running; the
// combined error of all failures is returned.
//
// With an Injector installed, transiently failed attempts are requeued
// (FIFO, so surviving devices pick them up) until the Retry policy's
// attempt bound or budget is exhausted; injected backoff and latency
// spikes are charged to the job's simulated timeline, never slept. A
// hard fault quarantines the executing device: its dispatch goroutine
// re-arms with an unbound healthy device when one exists and otherwise
// leaves the pool. If every device is lost mid-batch the remaining
// jobs fail with ErrNoDevices.
//
// Once ctx is cancelled no further queued attempts are dispatched:
// attempts already running finish their Work (Work receives ctx and
// should observe it), units still waiting are skipped, and ctx.Err()
// is joined into the returned error alongside any per-job failures.
// Every internal goroutine — dispatchers and the cancellation watcher
// — is joined before RunCtx returns, so a cancelled batch leaks
// nothing. Completed jobs are accounted to the virtual timelines
// either way, so partial progress remains observable through Stats.
func (c *Cluster) RunCtx(ctx context.Context, jobs []Job) error {
	total := len(jobs)

	c.mu.Lock()
	batch := c.batches
	c.batches++
	var devs []int
	for d := 0; d < c.n; d++ {
		if !c.quarantined[d] {
			devs = append(devs, d)
		}
	}
	c.mu.Unlock()
	if total == 0 {
		return ctx.Err()
	}
	if len(devs) == 0 {
		return errors.Join(ErrNoDevices, ctx.Err())
	}

	workers := len(devs)
	if g := parallel.Workers(); g < workers {
		workers = g
	}
	bound, spare := devs[:workers], devs[workers:]

	pol := c.Retry
	inj := c.Injector
	maxAttempts := pol.Attempts()

	durations := make([]time.Duration, total) // accumulated compute across attempts
	extra := make([]time.Duration, total)     // injected latency + backoff (virtual)
	errs := make([]error, total)
	ran := make([]bool, total)

	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		queue     = make([]unit, 0, total)
		done      int
		cancelled bool
		retries   int
		alive     = workers
		newQuar   []int
	)
	for i := range jobs {
		queue = append(queue, unit{idx: i})
	}

	// Cancellation watcher: wakes dispatchers when ctx fires, and is
	// itself released when the batch completes (stop), so neither a
	// never-cancelled nor a cancelled-mid-transfer batch leaks it.
	stop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			mu.Lock()
			cancelled = true
			mu.Unlock()
			cond.Broadcast()
		case <-stop:
		}
	}()

	// finish marks job idx terminal under mu.
	finish := func(idx int, err error) {
		errs[idx] = err
		done++
	}
	// requeue re-dispatches u's next attempt if the policy allows,
	// otherwise finishes the job with err. Under mu.
	requeue := func(u unit, err error) {
		if u.attempt+1 < maxAttempts && pol.Take() {
			retries++
			extra[u.idx] += pol.Backoff(u.attempt)
			queue = append(queue, unit{idx: u.idx, attempt: u.attempt + 1})
			return
		}
		finish(u.idx, err)
	}

	var wg sync.WaitGroup
	for _, dev := range bound {
		wg.Add(1)
		go func(dev int) {
			defer wg.Done()
			for {
				mu.Lock()
				for len(queue) == 0 && done < total && !cancelled {
					cond.Wait()
				}
				if done >= total || cancelled {
					mu.Unlock()
					cond.Broadcast()
					return
				}
				u := queue[0]
				queue = queue[1:]
				mu.Unlock()

				kind, err, dur, lat := c.attempt(ctx, batch, dev, u, jobs[u.idx], inj, pol)

				mu.Lock()
				durations[u.idx] += dur
				extra[u.idx] += lat
				leave := false
				switch kind {
				case oDone:
					ran[u.idx] = true
					done++
				case oFatal:
					finish(u.idx, err)
				case oRetry:
					requeue(u, err)
				case oHard:
					newQuar = append(newQuar, dev)
					requeue(u, err)
					if len(spare) > 0 {
						// Re-arm this dispatcher with an unbound healthy
						// device.
						dev, spare = spare[0], spare[1:]
					} else {
						// Device lost and no spare: leave the pool.
						alive--
						leave = true
						if alive == 0 {
							// Pool lost: fail whatever is still queued.
							for _, q := range queue {
								finish(q.idx, fmt.Errorf("device: job %d: %w", q.idx, ErrNoDevices))
							}
							queue = nil
						}
					}
				}
				cond.Broadcast()
				mu.Unlock()
				if leave {
					return
				}
			}
		}(dev)
	}
	wg.Wait()
	close(stop)

	// Virtual list schedule of the measured durations.
	c.mu.Lock()
	for _, d := range newQuar {
		if !c.quarantined[d] {
			c.quarantined[d] = true
			c.nQuar++
		}
	}
	c.retries += retries
	end := make([]time.Duration, c.n)
	for i := range jobs {
		if !ran[i] {
			continue // never completed (memory gate, failure or cancellation)
		}
		cost := durations[i] + extra[i] + c.transferCost(jobs[i].Pixels)
		dev := 0
		for k := 1; k < c.n; k++ {
			if end[k] < end[dev] {
				dev = k
			}
		}
		end[dev] += cost
		c.busy[dev] += cost
		c.transfer += c.transferCost(jobs[i].Pixels)
		c.jobs++
	}
	makespan := time.Duration(0)
	for _, e := range end {
		if e > makespan {
			makespan = e
		}
	}
	c.elapsed += makespan
	c.mu.Unlock()

	if err := ctx.Err(); err != nil {
		return errors.Join(append([]error{err}, errs...)...)
	}
	return errors.Join(errs...)
}

// attempt executes one attempt of one job on one device, consulting
// the injector at the transfer and run sites. It returns the outcome
// classification, the attempt's error, its measured compute duration
// and any injected latency to charge to the virtual timeline.
func (c *Cluster) attempt(ctx context.Context, batch int64, dev int, u unit, job Job, inj fault.Injector, pol *fault.Retry) (outcome, error, time.Duration, time.Duration) {
	if !c.Fits(job.Pixels) {
		return oFatal, fmt.Errorf("device: job of %d pixels exceeds device memory %d", job.Pixels, c.memPixels), 0, 0
	}
	var lat time.Duration
	if inj != nil {
		key := fault.Key{Batch: batch, Unit: int64(u.idx), Attempt: int64(u.attempt), Device: int64(dev)}
		ft := inj.At(fault.SiteDeviceTransfer, key)
		lat += ft.Latency
		if ft.Err != nil {
			return classify(ft), ft.Err, 0, lat
		}
		fr := inj.At(fault.SiteDeviceRun, key)
		lat += fr.Latency
		if fr.Err != nil {
			return classify(fr), fr.Err, 0, lat
		}
		if pa := perAttempt(pol); pa > 0 && fr.Latency >= pa {
			// The spike exceeds the attempt deadline: the scheduler
			// kills the straggler and re-dispatches.
			return oRetry, fmt.Errorf("device: attempt %d of job %d exceeded per-attempt deadline %v (injected latency %v): %w",
				u.attempt, u.idx, pa, fr.Latency, context.DeadlineExceeded), 0, lat
		}
	}

	actx, cancel := ctx, context.CancelFunc(func() {})
	if pa := perAttempt(pol); pa > 0 {
		actx, cancel = context.WithTimeout(ctx, pa)
	}
	start := time.Now()
	err := runWork(actx, job, dev)
	dur := time.Since(start)
	cancel()

	switch {
	case err == nil:
		return oDone, nil, dur, lat
	case actx.Err() != nil && ctx.Err() == nil:
		return oRetry, fmt.Errorf("device: attempt %d of job %d killed by per-attempt deadline: %w", u.attempt, u.idx, err), dur, lat
	case fault.Hard(err):
		return oHard, err, dur, lat
	case fault.Transient(err):
		return oRetry, err, dur, lat
	default:
		return oFatal, err, dur, lat
	}
}

func classify(f fault.Fault) outcome {
	if f.Hard {
		return oHard
	}
	return oRetry
}

func perAttempt(pol *fault.Retry) time.Duration {
	if pol == nil {
		return 0
	}
	return pol.PerAttempt
}

// runWork invokes the job's Work as a registered computing goroutine of
// the worker pool, converting injected panics (thrown by error-less
// sites such as litho.aerial) into ordinary errors so the retry
// machinery can classify them. Genuine panics propagate.
func runWork(ctx context.Context, job Job, dev int) (err error) {
	parallel.Enter()
	defer parallel.Leave()
	defer func() {
		if r := recover(); r != nil {
			if fe, ok := fault.FromPanic(r); ok {
				err = fe
				return
			}
			panic(r)
		}
	}()
	return job.Work(ctx, dev)
}

func (c *Cluster) transferCost(pixels int) time.Duration {
	return time.Duration(float64(pixels) / 1e6 * float64(c.TransferPerMPixel))
}

// Stats summarises accumulated accounting.
type Stats struct {
	Jobs        int
	TotalBusy   time.Duration // Σ simulated device busy (serial-equivalent work)
	MaxBusy     time.Duration // busiest device timeline
	Transfer    time.Duration // simulated host-staging cost
	SimElapsed  time.Duration // virtual clock: Σ batch makespans
	Retries     int           // failed attempts re-dispatched by the retry policy
	Quarantined int           // devices currently quarantined by hard faults
}

// Stats returns a snapshot of the accounting counters.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{Jobs: c.jobs, Transfer: c.transfer, SimElapsed: c.elapsed, Retries: c.retries, Quarantined: c.nQuar}
	for _, b := range c.busy {
		s.TotalBusy += b
		if b > s.MaxBusy {
			s.MaxBusy = b
		}
	}
	return s
}
