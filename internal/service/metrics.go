package service

import (
	"io"
	"sort"
	"sync"
	"time"

	"mgsilt/internal/promtext"
)

// stageBuckets are the upper bounds (seconds) of the per-stage latency
// histogram: exponential ×4 steps spanning sub-iteration blips to
// multi-minute full-chip stages.
var stageBuckets = []float64{0.005, 0.02, 0.08, 0.32, 1.28, 5.12, 20.48, 81.92, 327.68}

// histogram is a fixed-bucket Prometheus-style cumulative histogram.
type histogram struct {
	counts []uint64 // per-bucket (non-cumulative) counts
	sum    float64
	count  uint64
}

func (h *histogram) observe(sec float64) {
	h.sum += sec
	h.count++
	for i, ub := range stageBuckets {
		if sec <= ub {
			h.counts[i]++
			return
		}
	}
	// Beyond the last bound: counted only in +Inf (h.count).
}

// registry accumulates the service's counters and histograms.
type registry struct {
	mu         sync.Mutex
	nSubmit    uint64
	nResumed   uint64
	nRecovered uint64
	nFinished  map[State]uint64
	stages     map[string]*histogram

	nTilesConverged    uint64
	nCoarseCorrections uint64
}

func newRegistry() *registry {
	return &registry{
		nFinished: make(map[State]uint64),
		stages:    make(map[string]*histogram),
	}
}

func (r *registry) submitted() {
	r.mu.Lock()
	r.nSubmit++
	r.mu.Unlock()
}

func (r *registry) resumed() {
	r.mu.Lock()
	r.nResumed++
	r.mu.Unlock()
}

func (r *registry) recovered(n int) {
	r.mu.Lock()
	r.nRecovered += uint64(n)
	r.mu.Unlock()
}

func (r *registry) finished(st State) {
	r.mu.Lock()
	r.nFinished[st]++
	r.mu.Unlock()
}

func (r *registry) twoLevel(tilesConverged, coarseCorrections int) {
	r.mu.Lock()
	r.nTilesConverged += uint64(tilesConverged)
	r.nCoarseCorrections += uint64(coarseCorrections)
	r.mu.Unlock()
}

func (r *registry) observeStage(stage string, d time.Duration) {
	r.mu.Lock()
	h, ok := r.stages[stage]
	if !ok {
		h = &histogram{counts: make([]uint64, len(stageBuckets))}
		r.stages[stage] = h
	}
	h.observe(d.Seconds())
	r.mu.Unlock()
}

// write renders the registry plus the server-level gauges in the
// Prometheus text exposition format.
func (r *registry) write(out io.Writer, snap snapshot) {
	w := promtext.New(out)
	r.mu.Lock()
	w.Counter("ilt_jobs_submitted_total", "Jobs accepted by POST /v1/jobs.", r.nSubmit)
	w.Counter("ilt_jobs_resumed_total", "Failed or cancelled jobs re-enqueued via resume.", r.nResumed)
	w.Counter("ilt_jobs_recovered_total", "Jobs replayed from the state-dir journal at startup.", r.nRecovered)
	w.Family("ilt_jobs_finished_total", "Jobs reaching a terminal state.", "counter")
	for _, st := range []State{StateDone, StateFailed, StateCancelled} {
		w.Sample("ilt_jobs_finished_total", r.nFinished[st], "state", string(st))
	}
	w.Counter("ilt_tiles_converged_total", "Tiles retired early by per-tile convergence dropout across finished jobs.", r.nTilesConverged)
	w.Counter("ilt_coarse_corrections_total", "Two-level Schwarz coarse-grid corrections applied across finished jobs.", r.nCoarseCorrections)
	w.Family("ilt_stage_duration_seconds", "Wall time per flow stage.", "histogram")
	names := make([]string, 0, len(r.stages))
	for name := range r.stages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := r.stages[name]
		w.Histogram("ilt_stage_duration_seconds", stageBuckets, h.counts, h.sum, h.count, "stage", name)
	}
	r.mu.Unlock()

	w.Family("ilt_jobs_current", "Jobs currently in a non-terminal state.", "gauge")
	w.Sample("ilt_jobs_current", snap.queued, "state", "queued")
	w.Sample("ilt_jobs_current", snap.running, "state", "running")
	w.Gauge("ilt_queue_depth", "Jobs waiting in the FIFO queue.", snap.queueDepth)
	w.Gauge("ilt_workers", "Worker pool size.", snap.workers)
	w.Gauge("ilt_compute_workers", "Process-wide compute pool width (internal/parallel): per-kernel convolution and FFT fan-out.", snap.computeWorkers)
	w.Gauge("ilt_uptime_seconds", "Time since the server started.", snap.uptime.Seconds())
	w.Counter("ilt_kernels_evaluated_total", "Hopkins kernels evaluated by the litho engine (a folded conjugate pair counts once; process-wide).", snap.kernelsEvaluated)

	w.Counter("ilt_device_jobs_total", "Tile jobs executed on the simulated clusters.", snap.device.Jobs)
	w.Counter("ilt_device_busy_seconds_total", "Cumulative simulated device busy time.", snap.device.TotalBusy.Seconds())
	w.Counter("ilt_device_transfer_seconds_total", "Cumulative simulated host-staging time.", snap.device.Transfer.Seconds())
	w.Counter("ilt_device_sim_elapsed_seconds_total", "Cumulative virtual-clock makespan.", snap.device.SimElapsed.Seconds())
	w.Counter("ilt_device_retries_total", "Tile-job attempts re-dispatched by the fault retry policy.", snap.device.Retries)
	w.Gauge("ilt_devices_quarantined", "Devices currently quarantined by hard faults.", snap.device.Quarantined)

	if cs := snap.cache; cs != nil {
		w.Family("ilt_cache_hits_total", "Tile-cache lookups served without a solve, by tier.", "counter")
		w.Sample("ilt_cache_hits_total", cs.Hits, "tier", "ram")
		w.Sample("ilt_cache_hits_total", cs.DiskHits, "tier", "disk")
		w.Counter("ilt_cache_misses_total", "Tile-cache lookups that required a solve.", cs.Misses)
		w.Counter("ilt_cache_merged_total", "Duplicate in-flight solves coalesced by singleflight.", cs.Merged)
		w.Counter("ilt_cache_evictions_total", "Entries evicted to stay under the byte budget.", cs.Evictions)
		w.Gauge("ilt_cache_bytes", "Resident bytes of cached tile results.", cs.Bytes)
		w.Gauge("ilt_cache_entries", "Resident cached tile results.", cs.Entries)
	}
	if ss := snap.shard; ss != nil {
		w.Gauge("ilt_shard_workers", "Configured remote shard worker URLs.", snap.shardWorkers)
		w.Counter("ilt_shard_batches_total", "Tile batches dispatched to shard workers.", ss.Batches)
		w.Counter("ilt_shard_rounds_total", "Shard dispatch rounds (more than one per batch only after a worker loss).", ss.Rounds)
		w.Counter("ilt_shard_tiles_total", "Tile solves dispatched to shard workers.", ss.Tiles)
		w.Counter("ilt_shard_halo_bytes_total", "Wire payload shipped as overlap-halo diff patches.", ss.HaloBytes)
		w.Counter("ilt_shard_full_bytes_total", "Wire payload shipped as full masks (targets, freezes, first-contact inits).", ss.FullBytes)
		w.Counter("ilt_shard_reassigned_tiles_total", "Tiles re-dispatched to survivors after a worker failure.", ss.ReassignedTiles)
		w.Counter("ilt_shard_request_retries_total", "Worker requests retried at the transport level.", ss.RequestRetries)
		w.Counter("ilt_shard_workers_quarantined_total", "Workers quarantined after exhausting the request retry policy.", ss.WorkersQuarantined)
	}
	if bs := snap.sched; bs != nil {
		w.Counter("ilt_sched_requests_total", "Tile solves run in lockstep batches.", bs.Requests)
		w.Counter("ilt_sched_batches_total", "Lockstep batches solved, one device job each.", bs.Batches)
		w.Counter("ilt_sched_batched_requests_total", "Requests that shared a batch with at least one peer.", bs.Batched)
	}
}
