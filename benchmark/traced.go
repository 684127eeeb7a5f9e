package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"mgsilt/internal/cache"
	"mgsilt/internal/core"
	"mgsilt/internal/litho"
	"mgsilt/internal/metrics"
	"mgsilt/internal/sched"
	"mgsilt/internal/shard"
)

// A traced run spends about half its budget on ops — alternating an
// op with nothing installed and the same op with spans recorded, so
// the two see the same machine state and their ratio is the tracing
// overhead — and the rest on the probes.
const tracedShare = 0.5

// qualityBar is the share of a clip's no-ILT L2 that
// core.iters_to_quality counts iterations to (the bar of the repo's
// scaling experiment).
const qualityBar = 0.20

// tracedOp is one traced in-process op and what was counted around it.
type tracedOp struct {
	flowResult
	t       *opTrace
	kernels int64
}

// zeroLayers fills the work counts of layers a workload never enters,
// so the separation between workloads is visible as zeros instead of
// holes.
func zeroLayers(ms metricSet, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if _, ok := ms[d.Name]; !ok && strings.HasPrefix(d.Name, p) {
				ms[d.Name] = 0
			}
		}
	}
}

// memDelta measures allocation and GC pause around fn.
func memDelta(fn func()) (allocMiB, pauseMS float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20), float64(b.PauseTotalNs-a.PauseTotalNs) / 1e6
}

// tracedFlow is the traced run of an in-process workload.
func tracedFlow(o options, sh shape, cores int, budget time.Duration) (metricSet, []sample, error) {
	b, err := setupFlow(o.workload, sh, o.seed, devices(o.workload, cores))
	if err == nil {
		err = b.warmup()
	}
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	rec := newRecorder()
	group := 1 + sh.Warm // ops that belong together: a cold pass and its warm passes
	var (
		ops            []sample
		plain          []flowResult
		traced         []tracedOp
		alloc, pause   []float64
		cacheD         cache.Stats
		schedD         sched.Stats
		warmHit, warmN uint64
		elapsed        time.Duration
	)
	for g := 0; g == 0 || (elapsed < time.Duration(tracedShare*float64(budget)) && (g+1)*group <= b.maxOps()); g++ {
		// Untraced leg.
		if err := b.resetCache(); err != nil {
			return nil, nil, err
		}
		for k := 0; k < group; k++ {
			var r flowResult
			before := b.cacheStats()
			a, p := memDelta(func() { r = b.op(g*group+k, nil) })
			b.verify(&r, before, b.cacheStats())
			alloc, pause = append(alloc, a), append(pause, p)
			plain = append(plain, r)
			ops = append(ops, r.sample)
			elapsed += r.wall
		}
		// Traced leg: the same inputs through a fresh cache.
		if err := b.resetCache(); err != nil {
			return nil, nil, err
		}
		for k := 0; k < group; k++ {
			t := newOpTrace(rec, len(traced)+1)
			before, kBefore := b.cacheStats(), litho.KernelsEvaluatedTotal()
			t.root = rec.begin(t.op, 0, layerOp, o.workload)
			r := b.op(g*group+k, t.install)
			rec.end(t.root)
			after := b.cacheStats()
			top := tracedOp{flowResult: r, t: t, kernels: litho.KernelsEvaluatedTotal() - kBefore}
			b.verify(&top.flowResult, before, after)
			if r.Kind == "warm" {
				d := after.Sub(before)
				warmHit, warmN = warmHit+d.Hits, warmN+d.Hits+d.Misses
			}
			traced = append(traced, top)
			ops = append(ops, top.sample)
			elapsed += r.wall
		}
		if b.cached() && g == 0 {
			cacheD, schedD = b.cache.Stats(), b.batcher.Stats()
		}
	}
	for _, s := range ops {
		if s.Err != nil {
			return nil, ops, nil // the caller reports the failed ops; no budget to compute
		}
	}

	p := newProber(o, map[int]*litho.Simulator{sh.N: b.sim})
	p.all(sh)
	ms := p.out

	// Per-op means over the primary traced ops (not the warm passes).
	spans := rec.snapshot()
	n := 0.0
	sum := metricSet{}
	var tracedWall, plainWall []float64
	for _, r := range plain {
		if r.Kind != "warm" {
			plainWall = append(plainWall, r.Wall)
		}
	}
	for _, top := range traced {
		if top.Kind == "warm" {
			continue
		}
		n++
		tracedWall = append(tracedWall, top.Wall)
		bud := budgetOf(spans, top.t.op)
		addBudget(sum, bud, top.t, p, b.devices)
		addDevice(sum, top.res, bud, b.devices)
	}
	for k, v := range sum {
		ms[k] = v / n
	}
	finishBudget(ms)
	countsOf(ms, traced[0])
	ms["core.iters_to_quality"] = float64(itersToQuality(b, traced[0], stageNames(spans, traced[0].t.op)))
	ms["runtime.alloc_mb_per_clip"] = mean(alloc)
	ms["runtime.gc_pause_ms_per_clip"] = mean(pause)
	ms["trace.overhead_frac"] = median(tracedWall)/median(plainWall) - 1

	if b.cached() {
		// Counts of the first traced group: one cold pass and its warm passes.
		ms["cache.hits"], ms["cache.misses"], ms["cache.merged"] = float64(cacheD.Hits), float64(cacheD.Misses), float64(cacheD.Merged)
		ms["cache.bytes"] = float64(cacheD.Bytes)
		ms["cache.hit_rate_warm"] = float64(warmHit) / float64(max(warmN, 1))
		ms["sched.requests"], ms["sched.batches"] = float64(schedD.Requests), float64(schedD.Batches)
		ms["sched.batched_frac"] = float64(schedD.Batched) / float64(max(schedD.Requests, 1))
		ms["sched.mean_batch"] = float64(schedD.Requests) / float64(max(schedD.Batches, 1))
	}
	zeroLayers(ms, "cache.", "sched.", "shard.", "service.")
	printBudget(o.log, o.workload, ms)
	return ms, ops, writeTrace(o.traceOut, spans)
}

func (b *flowBench) cacheStats() cache.Stats {
	if b.cache == nil {
		return cache.Stats{}
	}
	return b.cache.Stats()
}

// stageOrder lists the stage names of the multigrid-Schwarz flow, and
// stageKey maps one to its metric.
var stageOrder = []string{"coarse", "fine", "coarse-correct", "refine", "inspect"}

func stageKey(stage string) string {
	return "core.stage_s." + strings.ReplaceAll(stage, "-", "_")
}

// addBudget accumulates one op's span budget and solver accounting.
func addBudget(sum metricSet, bud opBudget, t *opTrace, p *prober, devs int) {
	for _, name := range stageOrder {
		sum[stageKey(name)] += bud.stage[name].Seconds()
	}
	sum["core.self_s"] += bud.coreSelf.Seconds()
	sum["core.unaccounted_s"] += bud.unaccounted.Seconds()
	sum["op.wall_s"] += bud.wall.Seconds()
	sum["opt.solve_busy_s"] += bud.solveBusy.Seconds()
	iters := 0
	predicted := 0.0 // Σ iterations × the probed cost of one LossGrad at that stretch
	for stretch, n := range t.iters {
		iters += n
		predicted += float64(n) * p.lossGradMS(stretch, devs) / 1e3
	}
	sum["opt.iters"] += float64(iters)
	sum["opt.predicted_litho_s"] += predicted
}

// lossGradMS is the probed cost of one LossGrad inside a solve: at the
// pool width when one device runs solves one at a time, at one worker
// when concurrent solves share the cores between them. Every coarse
// stretch is charged at the stretch-2 probe.
func (p *prober) lossGradMS(stretch, devs int) float64 {
	cost := p.wide
	if devs > 1 {
		cost = p.narrow
	}
	if stretch > 1 {
		return cost[1]
	}
	return cost[0]
}

// countsOf reports the work counts of one op — the first traced one,
// on the panel's first input — instead of a mean over however many ops
// the run had time for, so that they repeat exactly from run to run.
func countsOf(ms metricSet, op tracedOp) {
	ms["opt.solve_calls"] = float64(op.t.calls)
	ms["device.jobs"] = float64(op.res.Stats.Jobs)
	ms["litho.kernels_evaluated_per_clip"] = float64(op.kernels)
	ms["core.tile_solves_skipped"] = float64(op.res.TileSolvesSkipped)
}

// addDevice accumulates the device model's accounting of one op and
// reconciles its virtual clock with the wall clock.
func addDevice(sum metricSet, res *core.Result, bud opBudget, devs int) {
	st := res.Stats
	sum["device.busy_s"] += st.TotalBusy.Seconds()
	sum["device.transfer_s"] += st.Transfer.Seconds()
	// Every op of every workload dispatches device jobs, so both
	// clocks are positive.
	sum["device.idle_frac"] += 1 - st.TotalBusy.Seconds()/(float64(devs)*st.SimElapsed.Seconds())
	sum["device.wall_over_virtual"] += (bud.wall - bud.stage["inspect"] - bud.unaccounted).Seconds() / res.TAT.Seconds()
}

// finishBudget turns the accumulated sums into the derived ratios.
func finishBudget(ms metricSet) {
	ms["core.unaccounted_frac"] = ms["core.unaccounted_s"] / ms["op.wall_s"]
	ms["opt.iter_ms"], ms["opt.self_frac"] = 0, 0
	if ms["opt.iters"] > 0 && ms["opt.solve_busy_s"] > 0 {
		ms["opt.iter_ms"] = 1e3 * ms["opt.solve_busy_s"] / ms["opt.iters"]
		ms["opt.self_frac"] = 1 - ms["opt.predicted_litho_s"]/ms["opt.solve_busy_s"]
	}
}

// itersToQuality replays one traced op's stage checkpoints offline and
// returns the solver iterations per tile scheduled up to the first
// stage whose binarised layout prints within qualityBar of the clip's
// no-ILT L2 — how far the schedule could be cut at that quality. When
// no stage gets there it returns the whole schedule plus one. stages
// are the op's stage spans in schedule order, which name each
// checkpoint.
func itersToQuality(b *flowBench, top tracedOp, stages []string) int {
	cfg, err := b.config()
	if err != nil {
		return 0
	}
	input, _ := b.opInput(top.Index)
	target := b.clips[input].Target
	bar := qualityBar * b.noILT[input]
	levels := 0
	for s := cfg.CoarseScale; s >= 2; s /= 2 {
		levels++
	}
	per := cfg.FineIters / cfg.FineStages
	done, fine := 0, 0
	for i, ck := range top.t.stageMasks {
		switch stages[i] {
		case "coarse":
			done += max(cfg.CoarseIters/levels, 1)
		case "fine":
			done += per
			if fine == 0 {
				done += cfg.FineIters - per*cfg.FineStages
			}
			fine++
		case "coarse-correct":
			done += max(cfg.CoarseIters/4, 1)
		case "refine":
			done += cfg.RefineVisitIters
		}
		if metrics.L2(b.sim, ck.Mask.Binarize(0.5), target) <= bar {
			return done
		}
	}
	return done + 1
}

// stageNames lists one op's optimisation stage spans in schedule order.
func stageNames(spans []span, op int) []string {
	var names []string
	for _, s := range spans { // snapshot order is begin order
		if s.Op == op && s.Layer == layerCore && s.Name != "inspect" {
			names = append(names, s.Name)
		}
	}
	return names
}

// printBudget prints the traced budget so a reader can check that it
// adds up: op = Σ stages + unaccounted; optimisation stages = solver
// time on the critical path + core.self; solver busy = iterations ×
// probed LossGrad + opt.self; and, when solves do not overlap, the
// layers against the op.
func printBudget(w io.Writer, workload string, ms metricSet) {
	wall := ms["op.wall_s"]
	stages := ms["core.stage_s.coarse"] + ms["core.stage_s.fine"] + ms["core.stage_s.coarse_correct"] + ms["core.stage_s.refine"]
	fmt.Fprintf(w, "\n%s traced budget (per op, seconds)\n", workload)
	fmt.Fprintf(w, "  op wall                  %8.4f\n", wall)
	fmt.Fprintf(w, "  = optimisation stages    %8.4f  (coarse %.4f, fine %.4f, coarse-correct %.4f, refine %.4f)\n",
		stages, ms["core.stage_s.coarse"], ms["core.stage_s.fine"], ms["core.stage_s.coarse_correct"], ms["core.stage_s.refine"])
	fmt.Fprintf(w, "  + inspect                %8.4f\n", ms["core.stage_s.inspect"])
	fmt.Fprintf(w, "  + unaccounted            %8.4f  (%.2f %%)\n", ms["core.unaccounted_s"], 100*ms["core.unaccounted_frac"])
	fmt.Fprintf(w, "  optimisation stages      %8.4f\n", stages)
	fmt.Fprintf(w, "  = solver/backend on path %8.4f\n", stages-ms["core.self_s"])
	fmt.Fprintf(w, "  + core.self              %8.4f\n", ms["core.self_s"])
	fmt.Fprintf(w, "  solver busy (all devices)%8.4f  (%g calls, %g iterations)\n", ms["opt.solve_busy_s"], ms["opt.solve_calls"], ms["opt.iters"])
	fmt.Fprintf(w, "  = iterations x LossGrad  %8.4f\n", ms["opt.predicted_litho_s"])
	fmt.Fprintf(w, "  + opt.self               %8.4f  (%.1f %%)\n", ms["opt.solve_busy_s"]-ms["opt.predicted_litho_s"], 100*ms["opt.self_frac"])
	if ms["opt.solve_busy_s"] <= stages { // one device: solves do not overlap, so the layers must add up to the op
		closure := ms["opt.solve_busy_s"] + ms["core.self_s"] + ms["core.stage_s.inspect"]
		fmt.Fprintf(w, "  litho + opt.self + core.self + inspect = %.4f vs op wall %.4f (%+.1f %%)\n", closure, wall, 100*(closure-wall)/wall)
	}
}

func writeTrace(path string, spans []span) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedServed is the traced run of served-sharded: client-side
// timers and the service's own status timestamps for the service
// layer, then the same jobs' flow run directly on a wrapped shard
// coordinator over the same workers for the shard layer.
func tracedServed(o options, sh shape, cores int, budget time.Duration) (metricSet, []sample, error) {
	b, err := setupServed(sh, o.seed, devices(o.workload, cores))
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer b.close()
	if err := b.warmup(); err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	leg := time.Duration(tracedShare * float64(budget) / 3)

	// Leg 1: untraced jobs. Leg 2: the next jobs with client timers.
	var plainJobs []servedJob
	alloc, pause := memDelta(func() { plainJobs, _ = b.pass(leg, 1, nil) })
	rec := newRecorder()
	var (
		tmu    sync.Mutex // the clients report from their own goroutines
		traces = map[int]*jobTrace{}
	)
	tracedJobs, _ := b.pass(leg, 1, func(i int, _ servedJob, tr *jobTrace) {
		tmu.Lock()
		traces[i] = tr
		tmu.Unlock()
	})
	jobs := append(plainJobs, tracedJobs...)
	if err := b.verify(jobs, exactJobs); err != nil {
		return nil, nil, err
	}
	ops := samplesOf(jobs)

	// Leg 3: the flow of the first jobs run directly on a wrapped
	// coordinator, so every barrier round is a span.
	direct, err := b.directOps(rec, leg)
	if err != nil {
		return nil, nil, err
	}
	for _, d := range direct.ops {
		ops = append(ops, d.sample)
	}
	for _, s := range ops {
		if s.Err != nil {
			return nil, ops, nil
		}
	}

	p := newProber(o, map[int]*litho.Simulator{})
	p.all(sh)
	out := p.out
	out["runtime.alloc_mb_per_clip"] = alloc / float64(len(plainJobs))
	out["runtime.gc_pause_ms_per_clip"] = pause / float64(len(plainJobs))
	for _, j := range tracedJobs {
		recordJobSpans(rec, j, traces[j.Index])
	}
	spans := rec.snapshot()
	shardLayer(out, spans, direct, p, len(b.workers))
	printBudget(o.log, o.workload+" (the flow run directly on the shard workers)", out)
	serviceLayer(out, plainJobs, tracedJobs, traces)
	out["core.iters_to_quality"] = 0 // no stage checkpoints cross the service or the wire
	zeroLayers(out, "cache.", "sched.")
	fmt.Fprintf(o.log, "  served op %.4f s = service.run %.4f s + queue %.3f ms + submit %.3f ms + result %.3f ms + poll lag\n",
		out["service.run_s"]/(1-out["service.overhead_frac"]), out["service.run_s"], out["service.queue_wait_ms"], out["service.submit_ms"], out["service.result_ms"])
	fmt.Fprintf(o.log, "  shard rounds %.4f s/op of which busiest worker %.4f (overhead %.1f %%)\n",
		out["shard.round_s"], out["shard.worker_busy_s"], 100*out["shard.overhead_frac"])
	return out, ops, writeTrace(o.traceOut, spans)
}

// serviceLayer folds the traced jobs' client-side timers and the
// service's status timestamps into service.*, and the served jobs' own
// stage timeline into core.stage_s.*: it is the better record of the
// stages than the direct ops', being what clip_s contains (two jobs
// sharing the cores).
func serviceLayer(out metricSet, plain, traced []servedJob, traces map[int]*jobTrace) {
	var submit, queue, runS, polls, result, latency, plainLatency []float64
	stageSum := map[string]float64{}
	for _, j := range traced {
		tr := traces[j.Index]
		st := tr.status
		submit = append(submit, ms(tr.submit))
		result = append(result, ms(tr.result))
		for _, d := range tr.polls {
			polls = append(polls, ms(d))
		}
		queue = append(queue, ms(st.StartedAt.Sub(st.CreatedAt)))
		runS = append(runS, st.FinishedAt.Sub(*st.StartedAt).Seconds())
		latency = append(latency, j.Wall)
		for _, stg := range st.StageTimeline {
			stageSum[stg.Stage] += stg.WallMS / 1e3
		}
	}
	for _, j := range plain {
		plainLatency = append(plainLatency, j.Wall)
	}
	n := float64(len(traced))
	out["service.submit_ms"] = median(submit)
	out["service.queue_wait_ms"] = median(queue)
	out["service.run_s"] = median(runS)
	out["service.status_poll_ms"] = median(polls)
	out["service.polls_per_job"] = float64(len(polls)) / n
	out["service.result_ms"] = median(result)
	out["service.rejected"] = 0 // a refusal is a failed op, and a failed op ends a traced run
	out["service.overhead_frac"] = 1 - median(runS)/median(latency)
	out["trace.overhead_frac"] = median(latency)/median(plainLatency) - 1
	for _, name := range stageOrder {
		out[stageKey(name)] = stageSum[name] / n
	}
}

// shardLayer folds the direct ops into the core, device and shard
// metrics (per-op means).
func shardLayer(out metricSet, spans []span, direct directRun, p *prober, workers int) {
	sum := metricSet{}
	for _, d := range direct.ops {
		bud := budgetOf(spans, d.t.op)
		addBudget(sum, bud, d.t, p, workers)
		addDevice(sum, d.res, bud, workers)
		sum["shard.round_s"] += bud.roundBusy.Seconds()
	}
	n := float64(len(direct.ops))
	for k, v := range sum {
		out[k] = v / n
	}
	// The solves ran on the workers: their batch wall time is the
	// solver's busy time, the busiest worker's the critical path of the
	// rounds.
	out["opt.solve_busy_s"] = direct.busyAll.Seconds() / n
	out["shard.worker_busy_s"] = direct.busiest.Seconds() / n
	out["shard.overhead_frac"] = 1 - out["shard.worker_busy_s"]/out["shard.round_s"]
	out["shard.halo_bytes"] = float64(direct.stats.HaloBytes)
	out["shard.full_bytes"] = float64(direct.stats.FullBytes)
	out["shard.halo_frac"] = float64(direct.stats.HaloBytes) / float64(max(direct.stats.HaloBytes+direct.stats.FullBytes, 1))
	out["shard.request_retries"] = float64(direct.stats.RequestRetries)
	finishBudget(out)
	countsOf(out, direct.ops[0])
}

// recordJobSpans lays one served job's client-side phases and the
// service's own timestamps into the trace. The service reports
// durations between wall-clock instants; they are placed against the
// job's end, which both sides observed.
func recordJobSpans(rec *recorder, j servedJob, tr *jobTrace) {
	op := 1000 + j.Index
	start := tr.start.Sub(rec.epoch)
	end := start + time.Duration(j.Wall*float64(time.Second))
	root := rec.add(span{Op: op, Layer: layerOp, Name: "served job", Start: start, End: end})
	child := func(name string, a, b time.Duration) {
		rec.add(span{Parent: root, Op: op, Layer: layerService, Name: name, Start: a, End: b})
	}
	child("submit", start, start+tr.submit)
	if st := tr.status; st.StartedAt != nil && st.FinishedAt != nil {
		fin := end - tr.result
		run := st.FinishedAt.Sub(*st.StartedAt)
		child("queue", fin-run-st.StartedAt.Sub(st.CreatedAt), fin-run)
		child("run", fin-run, fin)
	}
	child("result", end-tr.result, end)
}

// directRun is what directOps measured.
type directRun struct {
	ops              []tracedOp
	stats            shard.Stats   // the first op's coordinator accounting (counts repeat exactly)
	busiest, busyAll time.Duration // the workers' batch wall time for these ops
}

// directOps runs the flow of the first served jobs in this process on
// a span-recording wrapper around a shard coordinator that talks to
// the workload's own workers.
func (b *servedBench) directOps(rec *recorder, budget time.Duration) (directRun, error) {
	var run directRun
	if err := b.optics(); err != nil {
		return run, err
	}
	prefix := fmt.Sprintf("bench-%d-", os.Getpid())
	var elapsed time.Duration
	for i := 0; i == 0 || (elapsed < budget && i < b.sh.Panel); i++ {
		spec := b.spec(i)
		cfg, err := b.flowConfig(b.sim, spec)
		if err != nil {
			return run, err
		}
		coord, err := shard.NewCoordinator(shard.Config{Workers: b.workerURLs(), N: spec.N, Solver: "pixel", RunID: fmt.Sprintf("%s%d", prefix, i)})
		if err != nil {
			return run, err
		}
		cfg.Tiles = coord
		clip, err := b.clip(spec)
		if err != nil {
			return run, err
		}
		t := newOpTrace(rec, 1+i)
		t.install(&cfg)
		kBefore := litho.KernelsEvaluatedTotal()
		t.root = rec.begin(t.op, 0, layerOp, "sharded flow")
		start := time.Now()
		res, err := core.MultigridSchwarz(cfg, clip)
		wall := time.Since(start)
		rec.end(t.root)
		elapsed += wall
		op := tracedOp{t: t, kernels: litho.KernelsEvaluatedTotal() - kBefore}
		op.sample = sample{Index: i, Wall: wall.Seconds(), Pixels: b.sh.Clip * b.sh.Clip, Err: err}
		if err == nil {
			op.res = res
			op.TAT, op.L2, op.PVBand, op.Stitch = res.TAT.Seconds(), res.L2, res.PVBand, res.StitchLoss
			op.Err = checkMask(res.Mask, res.L2, metrics.L2(b.sim, clip, clip))
		}
		run.ops = append(run.ops, op)
		if i == 0 {
			run.stats = coord.Stats()
		}
	}
	var err error
	run.busiest, run.busyAll, err = b.workerBusy(prefix)
	return run, err
}
