package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mgsilt/internal/cache"
	"mgsilt/internal/core"
	"mgsilt/internal/fft"
	"mgsilt/internal/grid"
	"mgsilt/internal/kernels"
	"mgsilt/internal/layout"
	"mgsilt/internal/litho"
	"mgsilt/internal/metrics"
	"mgsilt/internal/opt"
	"mgsilt/internal/parallel"
	"mgsilt/internal/pipeline"
	"mgsilt/internal/sched"
	"mgsilt/internal/shard"
	"mgsilt/internal/tile"
)

// A probe is a direct timed loop over one layer's exported function:
// the median of probeCalls calls, after one untimed call that fills
// plans, pools and lazily prepared spectra. A probe whose calls are so
// slow that twenty of them would eat the run (full-clip inspection at
// 512² is 0.4 s a call) stops at probeSlow once it has probeFloor
// calls; its median is over fewer, still odd-one-out-proof, samples.
const (
	probeFloor = 5
	probeSlow  = time.Second
)

// probeCalls is 20; the smoke test lowers it, its numbers mean nothing.
var probeCalls = 20

func probe(fn func()) time.Duration { return probeWith(func() {}, fn) }

// probeWith is probe with an untimed preparation step before each call.
func probeWith(prep, fn func()) time.Duration {
	runtime.GC() // start every probe from a swept heap, whatever ran before it
	prep()
	fn()
	var (
		ds    []float64
		total time.Duration
	)
	for len(ds) < probeCalls && (len(ds) < min(probeFloor, probeCalls) || total < probeSlow) {
		prep()
		t := time.Now()
		fn()
		d := time.Since(t)
		total += d
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// probeSizes are the two optics grids the catalogue's fixed-shape
// probes run at, whatever the workload: 64 (manytile-512, cells-512,
// served-sharded) and 128 (ours-256), with the clip each inspects.
var probeSizes = []struct{ n, clip int }{{64, 512}, {128, 256}}

// prober runs the per-layer probes. sims caches optics per grid size;
// shrink divides every fixed shape (the smoke test's toy scale).
type prober struct {
	out    metricSet
	sims   map[int]*litho.Simulator
	shrink int
	tmp    string
	// LossGrad at the workload's tile size, ms: [stretch 1, stretch 2]
	// at the pool width and at one worker.
	wide, narrow [2]float64
}

// newProber returns a prober that reuses the given optics; the smoke
// test's toy scale halves every fixed shape.
func newProber(o options, sims map[int]*litho.Simulator) *prober {
	p := &prober{out: metricSet{}, sims: sims, shrink: 1, tmp: o.tmp}
	if o.toy {
		p.shrink = 2
	}
	return p
}

func (p *prober) sim(n int) *litho.Simulator {
	if s, ok := p.sims[n]; ok {
		return s
	}
	s, err := newSim(n)
	if err != nil {
		panic(err) // the default optics at a power-of-two size always build
	}
	p.sims[n] = s
	return s
}

// testMask is a deterministic wire pattern of side n: the panel's
// first clip at that size, as target and (gray) mask.
func testMask(n int) *grid.Mat {
	c, err := layout.Generate(layout.DefaultConfig(n, panelSeed))
	if err != nil {
		panic(err)
	}
	return c.Target
}

// all runs every probe. sh is the workload's shape: the tile and
// resample probes run on its partition.
func (p *prober) all(sh shape) {
	p.setupPath(sh)
	for _, sz := range probeSizes {
		n, clip := sz.n/p.shrink, sz.clip/p.shrink
		tag := fmt.Sprintf("n%d", sz.n)
		p.fftAt(n, tag)
		sim := p.sim(n)
		tile := testMask(n)
		p.out["litho.lossgrad_ms."+tag] = ms(probe(func() {
			_, g := sim.LossGrad(tile, tile, litho.LossOpts{Stretch: 1})
			grid.PutMat(g)
		}))
		full := testMask(clip)
		p.out[fmt.Sprintf("litho.aerial_clip_ms.%d", sz.clip)] = ms(probe(func() {
			sim.Aerial(full, sim.Nominal())
		}))
		lines := mustPart(clip, n).StitchLines()
		stitch := core.DefaultConfig(sim, clip, 100).Stitch
		p.out[fmt.Sprintf("metrics.inspect_ms.%d", sz.clip)] = ms(probe(func() {
			metrics.L2(sim, full, full)
			metrics.PVBand(sim, full)
			metrics.StitchLoss(full, lines, stitch)
		}))
	}
	p.lithoAt(sh.N)
	p.tileAt(sh)
	p.resample()
	p.checkpoint()
	p.cacheLayer(sh.N)
	p.schedLayer(sh.N)
	p.shardWire()
}

func mustPart(clip, n int) *tile.Partition { return tile.MustPart(clip, clip, n, n/4) }

// setupPath times what only set-up pays: kernel generation, clip
// generation, simulator construction and the first litho call, which
// prepares spectra and plans lazily.
func (p *prober) setupPath(sh shape) {
	kc := kernels.DefaultConfig(sh.N)
	p.out["kernels.generate_ms"] = ms(probe(func() { kernels.MustGenerate(kc) }))
	p.out["layout.generate_ms"] = ms(probe(func() {
		if _, err := layout.Generate(layout.DefaultConfig(sh.Clip, panelSeed)); err != nil {
			panic(err)
		}
	}))
	nom := kernels.MustGenerate(kc)
	def, err := kernels.Defocused(kc, defocus)
	if err != nil {
		panic(err)
	}
	p.out["litho.new_ms"] = ms(probe(func() {
		if _, err := litho.New(nom, def, litho.DefaultConfig()); err != nil {
			panic(err)
		}
	}))
	// First call on a fresh simulator: no warm-up call, few repeats.
	m := testMask(sh.N)
	first := make([]float64, 5)
	for i := range first {
		sim, err := newSim(sh.N)
		if err != nil {
			panic(err)
		}
		t := time.Now()
		_, g := sim.LossGrad(m, m, litho.LossOpts{Stretch: 1})
		first[i] = float64(time.Since(t))
		grid.PutMat(g)
	}
	p.out["litho.first_call_ms"] = ms(time.Duration(median(first)))
}

// fftAt probes the four transforms a LossGrad is made of, at one
// size, with the simulator's own kernel count and pupil band.
func (p *prober) fftAt(n int, tag string) {
	set := kernels.MustGenerate(kernels.DefaultConfig(n))
	k := len(set.Kernels)
	// The pupil band in corner layout: rows within P/2 of DC.
	live := make([]bool, n)
	for y := range live {
		live[y] = y <= set.P/2 || y >= n-set.P/2
	}
	src := testMask(n)
	dst := grid.NewCMat(n, n)
	p.out["fft.forward_real2d_us."+tag] = us(probe(func() { fft.ForwardReal2D(dst, src) }))
	batch := make([]*grid.CMat, k)
	for i := range batch {
		batch[i] = grid.NewCMat(n, n)
	}
	// fill loads src into the live rows of every matrix and zeroes the
	// dead ones.
	fill := func(ms ...*grid.CMat) func() {
		return func() {
			for _, m := range ms {
				for y := 0; y < n; y++ {
					row := m.Row(y)
					for x := range row {
						row[x] = 0
						if live[y] {
							row[x] = complex(src.At(y, x), 0)
						}
					}
				}
			}
		}
	}
	p.out["fft.batch2d_us."+tag] = us(probeWith(fill(batch...), func() { fft.Batch2D(batch, fft.DirForward) }))
	one := grid.NewCMat(n, n)
	refill := fill(one)
	// Dead rows must be zero on input, so the matrices are rebuilt
	// before every call, outside the timed region.
	p.out["fft.inverse_pruned_us."+tag] = us(probeWith(refill, func() { fft.Inverse2DPruned(one, live) }))
	p.out["fft.forward_band_us."+tag] = us(probeWith(refill, func() { fft.Forward2DBand(one, live) }))
}

// lithoAt probes the loss-gradient variants at the workload's own
// tile size: the coarse (stretched) path, the lockstep batch, the
// allocation count, the kernel-level parallel speed-up, and the
// computed flop rate of its batched transform.
func (p *prober) lithoAt(n int) {
	sim := p.sim(n)
	m := testMask(n)
	one := func(stretch int) func() {
		return func() {
			_, g := sim.LossGrad(m, m, litho.LossOpts{Stretch: stretch})
			grid.PutMat(g)
		}
	}
	masks := []*grid.Mat{m, m, m, m}
	p.out["litho.lossgrad_batch4_ms_per_tile"] = ms(probe(func() {
		_, gs := sim.LossGradBatch(masks, masks, litho.LossOpts{Stretch: 1})
		grid.PutMats(gs)
	})) / 4

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < probeCalls; i++ {
		one(1)()
	}
	runtime.ReadMemStats(&after)
	p.out["litho.lossgrad_allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / float64(probeCalls)

	// Both paths at the pool width and at one worker: a solve that has
	// the cores to itself runs at the former, two concurrent solves at
	// the latter each (lossGradMS).
	width := parallel.Workers()
	p.wide = [2]float64{ms(probe(one(1))), ms(probe(one(2)))}
	parallel.SetWorkers(1)
	p.narrow = [2]float64{ms(probe(one(1))), ms(probe(one(2)))}
	parallel.SetWorkers(width)
	p.out["litho.lossgrad_stretch2_ms"] = p.wide[1]
	p.out["parallel.lossgrad_speedup"] = p.narrow[0] / p.wide[0]
	p.out["parallel.workers"] = float64(width)

	// Computed, not counted: 5·n²·log2(n²) flops per complex 2-D
	// transform of side n, k transforms per batched call.
	flops := 5 * float64(n*n) * math.Log2(float64(n*n))
	k := float64(len(kernels.MustGenerate(kernels.DefaultConfig(n)).Kernels))
	p.out["fft.flops_per_call"] = flops
	batchUS := p.out[fmt.Sprintf("fft.batch2d_us.n%d", n*p.shrink)]
	p.out["fft.gflops"] = k * flops / (batchUS * 1e3)
}

// tileAt probes the partition operators on the workload's own fine
// partition.
func (p *prober) tileAt(sh shape) {
	part := mustPart(sh.Clip, sh.N)
	layout := testMask(sh.Clip)
	var tiles []*grid.Mat
	p.out["tile.extract_ms"] = ms(probe(func() { tiles = part.Extract(layout) }))
	var weights []*grid.Mat
	p.out["tile.weights_ms"] = ms(probe(func() {
		w, err := part.Weights(sh.N / 2)
		if err != nil {
			panic(err)
		}
		weights = w
	}))
	p.out["tile.assemble_ms"] = ms(probe(func() { part.Assemble(tiles, weights) }))
	p.out["tile.freeze_masks_ms"] = ms(probe(func() { part.FreezeMasks(sh.N / 4) }))
}

// resample probes restrict and lift at 512² (the coarse-correct path).
func (p *prober) resample() {
	m := testMask(512 / p.shrink)
	var small *grid.Mat
	p.out["grid.downsample_ms"] = ms(probe(func() { small = m.Downsample(2) }))
	p.out["grid.upsample_bilinear_ms"] = ms(probe(func() { small.UpsampleBilinear(2) }))
}

// checkpoint probes writing and reading one 512² stage checkpoint on
// the disk the benchmark runs from.
func (p *prober) checkpoint() {
	ck := &pipeline.Checkpoint{Flow: "multigrid-schwarz", Stage: 1, Total: 2, Mask: testMask(512 / p.shrink)}
	path := filepath.Join(p.tmp, "probe.ckpt")
	defer os.Remove(path)
	p.out["pipeline.checkpoint_write_ms"] = ms(probe(func() {
		f, err := os.Create(path)
		if err != nil {
			panic(err)
		}
		if err := pipeline.WriteCheckpoint(f, ck); err != nil {
			panic(err)
		}
		if err := f.Close(); err != nil {
			panic(err)
		}
	}))
	p.out["pipeline.checkpoint_read_ms"] = ms(probe(func() {
		f, err := os.Open(path)
		if err != nil {
			panic(err)
		}
		defer f.Close()
		if _, err := pipeline.ReadCheckpoint(f); err != nil {
			panic(err)
		}
	}))
}

// cacheLayer probes the content-addressed cache on one tile: hashing
// the key, a hit, and a store.
func (p *prober) cacheLayer(n int) {
	sim := p.sim(n)
	t := testMask(n)
	in := cache.KeyInput{
		Optics: sim.Fingerprint(), Solver: opt.NewPixel(sim).Fingerprint(),
		Iters: 8, Stretch: 1, LR: 0.4, Target: t, Init: t, Freeze: t,
	}
	var key cache.Key
	p.out["cache.key_us"] = us(probe(func() {
		k, err := in.Key()
		if err != nil {
			panic(err)
		}
		key = k
	}))
	c, err := cache.New(cache.Options{})
	if err != nil {
		panic(err)
	}
	p.out["cache.put_us"] = us(probe(func() { c.Put(key, t) }))
	p.out["cache.get_hit_us"] = us(probe(func() {
		if _, ok := c.Get(key); !ok {
			panic("cache probe: stored key missed")
		}
	}))
}

// schedLayer probes the latency tax of the batcher on a request that
// finds no peers: the MaxWait it sits out before a singleton flush,
// measured against the same solve dispatched directly.
func (p *prober) schedLayer(n int) {
	sim := p.sim(n)
	solver := opt.NewPixel(sim)
	t := testMask(n)
	params := opt.Params{Iters: 1, LR: 0.4, Stretch: 1}
	direct := probe(func() {
		if _, err := solver.Solve(t, t, params); err != nil {
			panic(err)
		}
	})
	b := sched.New(sched.Options{BatchSize: 4})
	lone := probe(func() {
		if _, err := b.Solve("probe", solver, t, t, params); err != nil {
			panic(err)
		}
	})
	p.out["sched.lone_flush_ms"] = ms(lone - direct)
}

// shardWire probes the shard wire format and halo patches on one
// batch of nine 64² tiles, the size of a served-sharded round.
func (p *prober) shardWire() {
	side := 64 / p.shrink
	t := testMask(side)
	next := t.Clone()
	for y := 0; y < side; y++ { // a changed halo strip, as between Schwarz stages
		for x := 0; x < side/4; x++ {
			next.Data[y*side+x] = 0.5
		}
	}
	req := &shard.SolveRequest{Session: "probe-e0", N: side, Solver: "pixel"}
	resp := &shard.SolveResponse{}
	for i := 0; i < 9; i++ {
		req.Tiles = append(req.Tiles, shard.TileWire{
			Index: i, Pixels: side * side, Iters: 2, Stretch: 1, LR: 0.4,
			Target: t, Freeze: t, Init: next,
		})
		resp.Tiles = append(resp.Tiles, shard.TileResult{Index: i, Mask: next})
	}
	var buf bytes.Buffer
	encode := func(write func() error) func() {
		return func() {
			buf.Reset()
			if err := write(); err != nil {
				panic(err)
			}
		}
	}
	p.out["shard.encode_request_ms"] = ms(probe(encode(func() error { return shard.WriteSolveRequest(&buf, req) })))
	raw := append([]byte(nil), buf.Bytes()...)
	p.out["shard.decode_request_ms"] = ms(probe(func() {
		if _, err := shard.ReadSolveRequest(bytes.NewReader(raw)); err != nil {
			panic(err)
		}
	}))
	p.out["shard.encode_response_ms"] = ms(probe(encode(func() error { return shard.WriteSolveResponse(&buf, resp) })))
	raw = append([]byte(nil), buf.Bytes()...)
	p.out["shard.decode_response_ms"] = ms(probe(func() {
		if _, err := shard.ReadSolveResponse(bytes.NewReader(raw)); err != nil {
			panic(err)
		}
	}))
	var patch *shard.Patch
	p.out["shard.diffpatch_ms"] = ms(probe(func() { patch = shard.DiffPatch(t, next) }))
	p.out["shard.patch_apply_ms"] = ms(probe(func() {
		if _, err := patch.Apply(t); err != nil {
			panic(err)
		}
	}))
}
