package main

import (
	"encoding/json"
	"sort"
)

// The catalogue is the single source of the names the benchmark
// prints: BENCHMARK.json at the repository root is `-manifest` output,
// and the smoke test fails when the two drift. Names are normative —
// issues and reviews cite them.

// runSeconds is how long one timed pass measures (BENCHMARK.json
// run_seconds). With set-up, warm-up and verification a run ends in
// about 30 s, which keeps the driver's 92 runs inside its cap.
const runSeconds = 20

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDecls = []workloadDecl{
	{"ours-256", "compute-bound: 3x3 tiles of 128x128 at the paper's schedule on 1 device, so fft/litho/opt do nearly all the work and cache/shard/service none; where a Hopkins-engine change must show"},
	{"manytile-512", "orchestration-bound: 15x15 small tiles, two coarse levels, coarse-correct and dropout on 2 devices, so tile/core/device overhead and barrier idle are a visible share"},
	{"cells-512", "repeated standard cells through one shared tile cache and batcher: cold passes take the miss/singleflight/batch path, warm passes the key-hash/hit path, so a gain for one that costs the other shows"},
	{"served-sharded", "small jobs over HTTP through the job service onto two shard workers: the only workload with queueing, JSON, polling, wire encoding and halo exchange on the critical path"},
}

// metricDecl declares one metric. An end-to-end metric — what a user
// of the system sees — carries a Bound: the share of the parent's
// median by which it may get worse before a change counts as a
// regression. A per-layer metric, named <module>.<metric>, has none
// (and so none in the JSON): it explains a move of an end-to-end
// metric, it does not gate.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// The timing bounds are as wide as the contract allows because the
// reference box is not steadier than that: with nothing else running
// its speed drifts by some 30 % for minutes at a time, and ten runs of
// one commit spread 9–14 % between their quartiles (README, baseline).
// The quality bounds are tight because quality repeats to the last bit.
var endToEnd = []metricDecl{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "clip_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "warm_clip_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "clip_p90_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "mpix_per_s", Unit: "Mpx/s", Better: higher, Bound: 0.25},
	{Name: "tat_virtual_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "l2_px", Unit: "px", Better: lower, Bound: 0.01},
	{Name: "pvband_px", Unit: "px", Better: lower, Bound: 0.01},
	{Name: "stitch_loss", Unit: "px", Better: lower, Bound: 0.01},
	{Name: "peak_rss_mb", Unit: "MiB", Better: lower, Bound: 0.20},
}

var perLayer = []metricDecl{
	// Set-up path: moves setup_s everywhere and nothing else.
	{Name: "kernels.generate_ms", Unit: "ms", Better: lower},
	{Name: "layout.generate_ms", Unit: "ms", Better: lower},
	{Name: "litho.new_ms", Unit: "ms", Better: lower},
	{Name: "litho.first_call_ms", Unit: "ms", Better: lower},

	{Name: "fft.forward_real2d_us.n64", Unit: "us", Better: lower},
	{Name: "fft.forward_real2d_us.n128", Unit: "us", Better: lower},
	{Name: "fft.batch2d_us.n64", Unit: "us", Better: lower},
	{Name: "fft.batch2d_us.n128", Unit: "us", Better: lower},
	{Name: "fft.inverse_pruned_us.n64", Unit: "us", Better: lower},
	{Name: "fft.inverse_pruned_us.n128", Unit: "us", Better: lower},
	{Name: "fft.forward_band_us.n64", Unit: "us", Better: lower},
	{Name: "fft.forward_band_us.n128", Unit: "us", Better: lower},
	{Name: "fft.flops_per_call", Unit: "flop", Better: lower},
	{Name: "fft.gflops", Unit: "Gflop/s", Better: higher},

	{Name: "litho.lossgrad_ms.n64", Unit: "ms", Better: lower},
	{Name: "litho.lossgrad_ms.n128", Unit: "ms", Better: lower},
	{Name: "litho.lossgrad_stretch2_ms", Unit: "ms", Better: lower},
	{Name: "litho.lossgrad_batch4_ms_per_tile", Unit: "ms", Better: lower},
	{Name: "litho.aerial_clip_ms.256", Unit: "ms", Better: lower},
	{Name: "litho.aerial_clip_ms.512", Unit: "ms", Better: lower},
	{Name: "litho.lossgrad_allocs_per_op", Unit: "count", Better: lower},
	{Name: "litho.kernels_evaluated_per_clip", Unit: "count", Better: lower},

	{Name: "parallel.lossgrad_speedup", Unit: "ratio", Better: higher},
	{Name: "parallel.workers", Unit: "count", Better: higher},

	{Name: "opt.solve_calls", Unit: "count", Better: lower},
	{Name: "opt.solve_busy_s", Unit: "s", Better: lower},
	{Name: "opt.iter_ms", Unit: "ms", Better: lower},
	{Name: "opt.self_frac", Unit: "ratio", Better: lower},

	{Name: "tile.extract_ms", Unit: "ms", Better: lower},
	{Name: "tile.assemble_ms", Unit: "ms", Better: lower},
	{Name: "tile.weights_ms", Unit: "ms", Better: lower},
	{Name: "tile.freeze_masks_ms", Unit: "ms", Better: lower},

	{Name: "grid.downsample_ms", Unit: "ms", Better: lower},
	{Name: "grid.upsample_bilinear_ms", Unit: "ms", Better: lower},

	{Name: "core.stage_s.coarse", Unit: "s", Better: lower},
	{Name: "core.stage_s.fine", Unit: "s", Better: lower},
	{Name: "core.stage_s.coarse_correct", Unit: "s", Better: lower},
	{Name: "core.stage_s.refine", Unit: "s", Better: lower},
	{Name: "core.stage_s.inspect", Unit: "s", Better: lower},
	{Name: "core.self_s", Unit: "s", Better: lower},
	{Name: "core.unaccounted_frac", Unit: "ratio", Better: lower},
	{Name: "core.tile_solves_skipped", Unit: "count", Better: higher},
	{Name: "core.iters_to_quality", Unit: "count", Better: lower},
	{Name: "pipeline.checkpoint_write_ms", Unit: "ms", Better: lower},
	{Name: "pipeline.checkpoint_read_ms", Unit: "ms", Better: lower},

	{Name: "device.jobs", Unit: "count", Better: lower},
	{Name: "device.busy_s", Unit: "s", Better: lower},
	{Name: "device.transfer_s", Unit: "s", Better: lower},
	{Name: "device.idle_frac", Unit: "ratio", Better: lower},
	{Name: "device.wall_over_virtual", Unit: "ratio", Better: lower},

	{Name: "cache.key_us", Unit: "us", Better: lower},
	{Name: "cache.get_hit_us", Unit: "us", Better: lower},
	{Name: "cache.put_us", Unit: "us", Better: lower},
	{Name: "cache.hits", Unit: "count", Better: higher},
	{Name: "cache.misses", Unit: "count", Better: lower},
	{Name: "cache.merged", Unit: "count", Better: higher},
	{Name: "cache.hit_rate_warm", Unit: "ratio", Better: higher},
	{Name: "cache.bytes", Unit: "B", Better: lower},

	{Name: "sched.requests", Unit: "count", Better: lower},
	{Name: "sched.batches", Unit: "count", Better: lower},
	{Name: "sched.batched_frac", Unit: "ratio", Better: higher},
	{Name: "sched.mean_batch", Unit: "count", Better: higher},
	{Name: "sched.lone_flush_ms", Unit: "ms", Better: lower},

	{Name: "shard.round_s", Unit: "s", Better: lower},
	{Name: "shard.worker_busy_s", Unit: "s", Better: lower},
	{Name: "shard.overhead_frac", Unit: "ratio", Better: lower},
	{Name: "shard.halo_bytes", Unit: "B", Better: lower},
	{Name: "shard.full_bytes", Unit: "B", Better: lower},
	{Name: "shard.halo_frac", Unit: "ratio", Better: higher},
	{Name: "shard.request_retries", Unit: "count", Better: lower},
	{Name: "shard.encode_request_ms", Unit: "ms", Better: lower},
	{Name: "shard.decode_request_ms", Unit: "ms", Better: lower},
	{Name: "shard.encode_response_ms", Unit: "ms", Better: lower},
	{Name: "shard.decode_response_ms", Unit: "ms", Better: lower},
	{Name: "shard.diffpatch_ms", Unit: "ms", Better: lower},
	{Name: "shard.patch_apply_ms", Unit: "ms", Better: lower},

	{Name: "service.submit_ms", Unit: "ms", Better: lower},
	{Name: "service.queue_wait_ms", Unit: "ms", Better: lower},
	{Name: "service.run_s", Unit: "s", Better: lower},
	{Name: "service.status_poll_ms", Unit: "ms", Better: lower},
	{Name: "service.polls_per_job", Unit: "count", Better: lower},
	{Name: "service.result_ms", Unit: "ms", Better: lower},
	{Name: "service.rejected", Unit: "count", Better: lower},
	{Name: "service.overhead_frac", Unit: "ratio", Better: lower},

	{Name: "metrics.inspect_ms.256", Unit: "ms", Better: lower},
	{Name: "metrics.inspect_ms.512", Unit: "ms", Better: lower},

	{Name: "runtime.alloc_mb_per_clip", Unit: "MiB", Better: lower},
	{Name: "runtime.gc_pause_ms_per_clip", Unit: "ms", Better: lower},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: lower},
	// Host speed, not program speed: a fixed loop that shares no code
	// with the repository (see calibration).
	{Name: "host.calib_ms", Unit: "ms", Better: lower},
	// Ops that errored, were refused or failed verification over ops
	// attempted. It is 0 on a healthy tree, which the contract forbids
	// for an end-to-end metric; the result line's failed/attempted and
	// the exit code carry the same fact with teeth.
	{Name: "fail_frac", Unit: "ratio", Better: lower},
}

// manifest renders BENCHMARK.json.
func manifest() ([]byte, error) {
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadDecl `json:"workloads"`
		EndToEnd   []metricDecl   `json:"end_to_end"`
		PerLayer   []metricDecl   `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDecls,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one run and renders exactly the
// declared names, so a metric that was never measured is a loud error
// instead of a silent hole.
type metricSet map[string]float64

func (m metricSet) render(names []string, unitOf map[string]string) (map[string]value, []string) {
	out := make(map[string]value, len(names))
	var missing []string
	for _, n := range names {
		v, ok := m[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		out[n] = value{Value: v, Unit: unitOf[n]}
	}
	sort.Strings(missing)
	return out, missing
}

// namesOf lists the declared names, in order, and their units.
func namesOf(decls []metricDecl) (names []string, units map[string]string) {
	units = make(map[string]string)
	for _, d := range decls {
		names = append(names, d.Name)
		units[d.Name] = d.Unit
	}
	return names, units
}
