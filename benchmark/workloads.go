package main

import (
	"fmt"
	"math"
	"time"

	"mgsilt/internal/cache"
	"mgsilt/internal/core"
	"mgsilt/internal/device"
	"mgsilt/internal/grid"
	"mgsilt/internal/kernels"
	"mgsilt/internal/layout"
	"mgsilt/internal/litho"
	"mgsilt/internal/metrics"
	"mgsilt/internal/sched"
	"mgsilt/internal/tile"
)

// panelSeed is the base seed of the quality panel: the first ops of
// every workload run on clips drawn from it whatever --seed says.
// ILT quality varies ±16 % (L2) to ±35 % (stitch loss) from clip to
// clip, far more than any bound worth gating on, so the quality
// metrics are taken on a fixed panel where they repeat exactly, and
// --seed draws the clips of every later op. All ops, panel or seeded,
// count in the timing metrics and pass the same output verification.
const panelSeed = 1000

// defocus is the process-window defocus every entry point of the repo
// builds its second kernel set with.
const defocus = 0.8

// shape is the size of one workload. The toy variants exist for the
// smoke test only; the catalogue's numbers are all at full scale.
type shape struct {
	N      int // optics grid = tile side
	Clip   int // layout side
	Iters  int // DefaultConfig schedule scale
	Clips  int // distinct inputs per pass (clips, or cell libraries)
	Panel  int // leading inputs drawn from panelSeed; also the minimum op count
	Warm   int // warm passes after each cold pass (cells-512)
	Lib    int // distinct cells per library (cells-512)
	Jobs   int // upper bound on jobs per pass (served-sharded)
	MinOps int // served-sharded: jobs a pass always runs, so its p90 has ten samples beyond it
	Custom func(*core.Config)
}

func (s shape) kernelProvenance() string {
	return fmt.Sprintf("%s;defocus=%g", kernels.DefaultConfig(s.N).Provenance(), defocus)
}

func manytileSchedule(c *core.Config) {
	c.CoarseScale = 4
	c.FineStages = 4
	c.CoarseCorrect = true
	c.DropTol = 0.01
}

// shapes returns the workload sizes. Full scale is the catalogue; toy
// (the repo's own CI scale, N=64) runs every code path in a fraction
// of a second per op.
func shapes(toy bool) map[string]shape {
	if toy {
		return map[string]shape{
			"ours-256":       {N: 64, Clip: 128, Iters: 10, Clips: 2, Panel: 1},
			"manytile-512":   {N: 32, Clip: 128, Iters: 10, Clips: 2, Panel: 1, Custom: manytileSchedule},
			"cells-512":      {N: 64, Clip: 128, Iters: 25, Clips: 2, Panel: 1, Warm: 1, Lib: 4},
			"served-sharded": {N: 64, Clip: 128, Iters: 20, Panel: 2, MinOps: 2, Jobs: 4},
		}
	}
	return map[string]shape{
		"ours-256":       {N: 128, Clip: 256, Iters: 100, Clips: 8, Panel: 4},
		"manytile-512":   {N: 64, Clip: 512, Iters: 40, Clips: 6, Panel: 2, Custom: manytileSchedule},
		"cells-512":      {N: 64, Clip: 512, Iters: 40, Clips: 6, Panel: 2, Warm: 2, Lib: 16},
		"served-sharded": {N: 64, Clip: 128, Iters: 20, Panel: 48, MinOps: 104, Jobs: 4096},
	}
}

// devices is the simulated device (and HTTP client) count of the
// multi-device workloads: never more than the cores that carry them,
// because with more devices than cores the virtual clock and the wall
// clock stop describing the same run.
func devices(name string, cores int) int {
	if name == "ours-256" {
		return 1
	}
	return min(cores, 2)
}

// sample is one op: one clip from call (or submit) to inspected result.
type sample struct {
	Index  int    // op index within the pass; inputs are a function of (seed, Index)
	Kind   string // "cold" or "warm" on cells-512, "" elsewhere
	Wall   float64
	TAT    float64 // Result.TAT, the virtual device-clock makespan
	L2     float64
	PVBand float64
	Stitch float64
	Pixels int
	Err    error // flow error, refusal or failed verification
}

// flowResult is what an in-process op hands to verification and the
// traced pass.
type flowResult struct {
	sample
	res  *core.Result
	wall time.Duration
}

// newSim builds the optics the way cmd/iltrun, internal/bench and the
// service do.
func newSim(n int) (*litho.Simulator, error) {
	kc := kernels.DefaultConfig(n)
	nom, err := kernels.Generate(kc)
	if err != nil {
		return nil, err
	}
	def, err := kernels.Defocused(kc, defocus)
	if err != nil {
		return nil, err
	}
	return litho.New(nom, def, litho.DefaultConfig())
}

// inputSeed maps (run seed, input index) to the generator seed of one
// input: panel inputs ignore the run seed.
func inputSeed(sh shape, seed int64, i int) int64 {
	if i < sh.Panel {
		return panelSeed + 97*int64(i)
	}
	return 1_000_003*seed + 97*int64(i)
}

// flowBench is the state of an in-process workload (ours-256,
// manytile-512, cells-512): the optics, the pass's inputs and the
// shared dispatch machinery.
type flowBench struct {
	sh      shape
	devices int
	sim     *litho.Simulator
	clips   []*layout.Clip
	noILT   []float64 // per input: L2 of printing the target itself, filled on first use

	// cells-512 only.
	cache   *cache.Cache
	batcher *sched.Batcher
	cold    []*grid.Mat // per library: the cold pass's mask, the warm passes' reference
}

func (b *flowBench) cached() bool { return b.sh.Warm > 0 }

// setupFlow builds an in-process workload up to (not including) its
// warm-up solve.
func setupFlow(name string, sh shape, seed int64, devs int) (*flowBench, error) {
	sim, err := newSim(sh.N)
	if err != nil {
		return nil, err
	}
	b := &flowBench{sh: sh, devices: devs, sim: sim}
	for i := 0; i < sh.Clips; i++ {
		var c *layout.Clip
		if b.cached() {
			c, err = layout.GenerateRepeat(layout.RepeatConfig{Size: sh.Clip, Seed: inputSeed(sh, seed, i), Library: sh.Lib})
		} else {
			c, err = layout.Generate(layout.DefaultConfig(sh.Clip, inputSeed(sh, seed, i)))
		}
		if err != nil {
			return nil, fmt.Errorf("%s: input %d: %w", name, i, err)
		}
		b.clips = append(b.clips, c)
	}
	b.noILT = make([]float64, len(b.clips))
	return b, b.resetCache()
}

// resetCache installs a fresh cache and batcher on cells-512 and does
// nothing on the workloads that run without one.
func (b *flowBench) resetCache() error {
	if !b.cached() {
		return nil
	}
	c, err := cache.New(cache.Options{})
	if err != nil {
		return err
	}
	b.cache = c
	b.batcher = sched.New(sched.Options{BatchSize: 4})
	b.cold = make([]*grid.Mat, len(b.clips))
	return nil
}

// config returns the flow configuration of one op, on a fresh cluster
// so Result.Stats and the virtual clock are the op's own.
func (b *flowBench) config() (core.Config, error) {
	cfg := core.DefaultConfig(b.sim, b.sh.Clip, b.sh.Iters)
	if b.sh.Custom != nil {
		b.sh.Custom(&cfg)
	}
	cl, err := device.NewCluster(b.devices, 0)
	if err != nil {
		return cfg, err
	}
	cfg.Cluster = cl
	cfg.TileCache = b.cache
	cfg.Batch = b.batcher
	return cfg, nil
}

// warmup runs one throw-away op at the smallest schedule the flow
// accepts, so lazily prepared kernel spectra (per tile size and
// stretch, and at the inspection size), FFT plans and the grid pools
// are filled before the first timed op. It bypasses the cache.
func (b *flowBench) warmup() error {
	cfg, err := b.config()
	if err != nil {
		return err
	}
	cfg.TileCache, cfg.Batch = nil, nil
	cfg.CoarseIters = 1
	cfg.FineIters = cfg.FineStages
	cfg.RefineIters = 1
	cfg.CoarseCorrectIters = 1
	_, err = core.MultigridSchwarz(cfg, b.clips[0].Target)
	return err
}

// opInput maps an op index to its input and kind.
func (b *flowBench) opInput(i int) (input int, kind string) {
	if !b.cached() {
		return i % len(b.clips), ""
	}
	group, pass := i/(1+b.sh.Warm), i%(1+b.sh.Warm)
	if pass == 0 {
		return group, "cold"
	}
	return group, "warm"
}

// maxOps bounds a pass: a cell library must not come round again
// (its cold pass would find the cache warm).
func (b *flowBench) maxOps() int {
	if b.cached() {
		return len(b.clips) * (1 + b.sh.Warm)
	}
	return math.MaxInt
}

// minOps is the panel: the ops the quality metrics are taken on.
func (b *flowBench) minOps() int {
	if b.cached() {
		return b.sh.Panel * (1 + b.sh.Warm)
	}
	return b.sh.Panel
}

// op runs op i end to end. install, when non-nil, may add the traced
// pass's hooks and wrappers to the configuration; the timed pass
// passes nil and runs the configuration exactly as a caller would.
func (b *flowBench) op(i int, install func(*core.Config)) flowResult {
	input, kind := b.opInput(i)
	out := flowResult{sample: sample{Index: i, Kind: kind, Pixels: b.sh.Clip * b.sh.Clip}}
	cfg, err := b.config()
	if err != nil {
		out.Err = err
		return out
	}
	if install != nil {
		install(&cfg)
	}
	target := b.clips[input].Target
	start := time.Now()
	res, err := core.MultigridSchwarz(cfg, target)
	out.wall = time.Since(start)
	out.Wall = out.wall.Seconds()
	if err != nil {
		out.Err = err
		return out
	}
	out.res = res
	out.TAT, out.L2, out.PVBand, out.Stitch = res.TAT.Seconds(), res.L2, res.PVBand, res.StitchLoss
	return out
}

// verify checks one op's output (untimed): the mask is finite, in
// [0,1] and prints closer to the target than the target itself does;
// on cells-512 a warm pass must reproduce its cold pass bit for bit
// from cache hits alone.
func (b *flowBench) verify(r *flowResult, before, after cache.Stats) {
	if r.Err != nil {
		return
	}
	input, kind := b.opInput(r.Index)
	if b.noILT[input] == 0 {
		t := b.clips[input].Target
		b.noILT[input] = metrics.L2(b.sim, t, t)
	}
	if err := checkMask(r.res.Mask, r.L2, b.noILT[input]); err != nil {
		r.Err = err
		return
	}
	switch kind {
	case "cold":
		b.cold[input] = r.res.Mask
	case "warm":
		d := after.Sub(before)
		coarse := b.coarseJobs()
		switch {
		case !r.res.Mask.Equal(b.cold[input]):
			r.Err = fmt.Errorf("warm pass mask differs from its cold pass")
		case d.Misses != 0:
			r.Err = fmt.Errorf("warm pass had %d cache misses", d.Misses)
		case r.res.Stats.Jobs != coarse:
			r.Err = fmt.Errorf("warm pass ran %d device jobs, want the %d uncached coarse solves only", r.res.Stats.Jobs, coarse)
		}
	}
}

// coarseJobs is the device-job count of the coarse cascade, the only
// solves a fully warm cells-512 pass still dispatches.
func (b *flowBench) coarseJobs() int {
	cfg := core.DefaultConfig(b.sim, b.sh.Clip, b.sh.Iters)
	jobs := 0
	for s := cfg.CoarseScale; s >= 2; s /= 2 {
		jobs += len(tile.MustPart(cfg.ClipSize, cfg.ClipSize, s*cfg.TileSize, s*cfg.Margin).Tiles)
	}
	return jobs
}

// checkMask is the output check every op of every workload passes: the
// mask is finite and in [0,1], and prints closer to the target than
// the target itself does.
func checkMask(m *grid.Mat, l2, noILT float64) error {
	for _, v := range m.Data {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("mask value %v outside [0,1]", v)
		}
	}
	// An empty clip (1 in ~600 at 128²) prints perfectly as it is; a
	// mask that keeps it so is correct.
	if !(l2 < noILT || (noILT == 0 && l2 == 0)) {
		return fmt.Errorf("L2 %.0f does not beat the no-ILT L2 %.0f of its clip", l2, noILT)
	}
	return nil
}

// pass runs the closed loop of an in-process workload: one client, the
// next op starts when the previous one returns. It runs at least the
// panel and stops before an op that would end after the budget. The
// returned wall time is the sum of the op latencies: verification and
// the caller's between (host calibration) run between ops and are not
// part of the pass.
func (b *flowBench) pass(budget time.Duration, between func()) ([]sample, time.Duration) {
	var (
		out     []sample
		elapsed time.Duration
		last    = map[string]time.Duration{}
	)
	for i := 0; i < b.maxOps(); i++ {
		_, kind := b.opInput(i)
		if i >= b.minOps() && elapsed+last[kind] > budget {
			break
		}
		between()
		before := b.cacheStats()
		r := b.op(i, nil)
		elapsed += r.wall
		last[kind] = r.wall
		b.verify(&r, before, b.cacheStats())
		out = append(out, r.sample)
	}
	return out, elapsed
}
