package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"mgsilt/internal/device"
	"mgsilt/internal/fault"
	"mgsilt/internal/grid"
	"mgsilt/internal/opt"
	"mgsilt/internal/parallel"
	"mgsilt/internal/pipeline"
	"mgsilt/internal/sched"
)

// chaosRun executes multigrid-Schwarz on a 4-device cluster with the
// given injector and returns the result plus the cluster's stats. The
// tweaks adjust the flow's Config (backends, hooks, another cluster)
// before it runs, and the injector and retry policy go on whichever
// cluster they leave; a flow that has not returned within the bound
// fails the test as hung.
func chaosRun(t *testing.T, target *grid.Mat, inj fault.Injector, retry *fault.Retry, tweaks ...func(*Config)) (*Result, device.Stats) {
	t.Helper()
	sim := testSim(t)
	cfg := testConfig(t, sim, 4)
	cl, err := device.NewCluster(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cluster = cl
	for _, tweak := range tweaks {
		tweak(&cfg)
	}
	cl = cfg.Cluster
	cl.Injector = inj
	cl.Retry = retry
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := MultigridSchwarz(cfg, target)
		done <- outcome{res, err}
	}()
	select {
	case out := <-done:
		if out.err != nil {
			t.Fatal(out.err)
		}
		return out.res, cl.Stats()
	case <-time.After(20 * time.Second):
		t.Fatal("flow hung")
		return nil, device.Stats{}
	}
}

// TestChaosMGSBitIdentical is the tentpole acceptance test at the core
// layer: a full multigrid-Schwarz flow under seeded transient faults
// and a mid-run device loss must complete with a final
// mask bit-identical to the fault-free run — retries may cost time,
// never correctness.
func TestChaosMGSBitIdentical(t *testing.T) {
	target := testClipTarget(t, 7)
	clean, cleanStats := chaosRun(t, target, nil, nil)
	if cleanStats.Retries != 0 {
		t.Fatalf("fault-free run recorded %d retries", cleanStats.Retries)
	}

	deviceDead := fault.InjectorFunc(func(k fault.Key) error {
		// Kill whichever device runs the first unit of batch 0:
		// one device dies mid-flow and its work migrates to survivors.
		if k.Batch == 0 && k.Unit == 0 && k.Attempt == 0 {
			return &fault.Error{Key: k, IsHard: true}
		}
		return nil
	})

	cases := []struct {
		name     string
		inj      fault.Injector
		wantQuar int
	}{
		{name: "transient-faults", inj: fault.NewSeeded(42, fault.Rates{Transient: 0.25})},
		{name: "one-device-dead", inj: deviceDead, wantQuar: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, stats := chaosRun(t, target, tc.inj, &fault.Retry{})
			if !res.Mask.Equal(clean.Mask) {
				t.Fatal("chaos mask differs from fault-free run")
			}
			if res.L2 != clean.L2 || res.PVBand != clean.PVBand || res.StitchLoss != clean.StitchLoss {
				t.Fatal("chaos run changed the reported metrics")
			}
			if stats.Retries == 0 {
				t.Fatal("expected retries, saw none — injector not reaching the dispatch path")
			}
			if stats.Quarantined != tc.wantQuar {
				t.Fatalf("quarantined %d devices, want %d", stats.Quarantined, tc.wantQuar)
			}

			// Seeded chaos is reproducible: a second identical run must
			// retry exactly as often and land on the same mask.
			res2, stats2 := chaosRun(t, target, tc.inj, &fault.Retry{})
			if stats2.Retries != stats.Retries {
				t.Fatalf("retry counts diverged across identical chaos runs: %d vs %d", stats.Retries, stats2.Retries)
			}
			if !res2.Mask.Equal(res.Mask) {
				t.Fatal("identical chaos runs produced different masks")
			}
		})
	}
}

// panicOnceSolver is the default pixel solver with one injected fault:
// once armed, the first Solve or SolveBatch to start throws fault.Panic,
// the way a compute site with no error return would. Embedding
// *opt.Pixel keeps its Fingerprint, so the tile cache and the batcher
// take it like the plain solver.
type panicOnceSolver struct {
	*opt.Pixel
	armed, tripped atomic.Bool
}

func (s *panicOnceSolver) trip() {
	if s.armed.Load() && s.tripped.CompareAndSwap(false, true) {
		panic(fault.Panic{Err: &fault.Error{}})
	}
}

func (s *panicOnceSolver) Solve(target, init *grid.Mat, p opt.Params) (*grid.Mat, error) {
	s.trip()
	return s.Pixel.Solve(target, init, p)
}

func (s *panicOnceSolver) SolveBatch(targets, inits []*grid.Mat, ps []opt.Params) ([]*grid.Mat, []error) {
	s.trip()
	return s.Pixel.SolveBatch(targets, inits, ps)
}

// TestChaosAerialFaultRetried: a fault thrown as a panic from inside a
// tile solve is converted back to a retryable error at the device job
// boundary, and the retried attempt reproduces the fault-free mask — on
// the direct path, through the tile cache (whose round leads the keys
// the panic unwinds past), through lockstep batching (whose batch runs
// inside the device job that recovers it) and through the lanes of one
// device at pool width 2 (where it unwinds from one of two tiles solving
// side by side, on either goroutine, to the job boundary, and the whole
// job retries: a fault costs every lane of its job a re-solve, so where
// lanes pack the retry count and the TAT under chaos depend on the pool
// width, and only the mask does not). The fault trips inside the first
// fine stage, where several tiles are in flight.
func TestChaosAerialFaultRetried(t *testing.T) {
	target := testClipTarget(t, 7)
	clean, _ := chaosRun(t, target, nil, nil)

	const batchSize = 4
	rows := []struct {
		name       string
		backend    func(cfg *Config)
		maxRetries int
		width      int // the pool width, when the row sets one
	}{
		{name: "direct", maxRetries: 1, backend: func(*Config) {}},
		{name: "cached", maxRetries: 1, backend: func(cfg *Config) { cfg.TileCache = newTileCache(t) }},
		// The failed batch's job retries once, whatever its size.
		{name: "batched", maxRetries: batchSize, backend: func(cfg *Config) {
			cfg.Batch = sched.New(sched.Options{BatchSize: batchSize})
		}},
		// The packed job retries once, whichever lane threw.
		{name: "lanes", maxRetries: 1, width: 2, backend: func(cfg *Config) {
			cl, err := device.NewCluster(1, 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Cluster = cl
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.width > 0 {
				defer parallel.SetWorkers(parallel.Workers())
				parallel.SetWorkers(row.width)
			}
			solver := &panicOnceSolver{}
			withSolver := func(cfg *Config) {
				solver.Pixel = opt.NewPixel(cfg.Sim)
				cfg.Solver = solver
				cfg.StageDone = func(pipeline.StageTiming) { solver.armed.Store(true) }
			}
			res, stats := chaosRun(t, target, nil, &fault.Retry{}, row.backend, withSolver)
			if !solver.tripped.Load() {
				t.Fatal("injected solver fault never fired")
			}
			if stats.Retries < 1 || stats.Retries > row.maxRetries {
				t.Fatalf("one injected solver fault cost %d retries, want 1..%d", stats.Retries, row.maxRetries)
			}
			if !res.Mask.Equal(clean.Mask) {
				t.Fatal("solver-fault run mask differs from fault-free run")
			}
		})
	}
}

// TestCheckpointResumeBitIdentical replays multigrid-Schwarz from each
// emitted checkpoint and requires the resumed runs to reproduce the
// uninterrupted result bit for bit — the property the service's
// kill/resume path relies on. Under dropout the checkpoints between two
// fine stages lack the per-tile dropout state: resuming from them must
// fail with ErrResumeDropout, one refusal per fine stage but the last,
// and every other checkpoint must still resume bit for bit.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	sim := testSim(t)
	target := testClipTarget(t, 7)

	for _, row := range []struct {
		name string
		cfg  func() Config
	}{
		{"default", func() Config { return testConfig(t, sim, 4) }},
		{"dropout", func() Config { return dropoutConfig(t, sim) }},
	} {
		var cps []Checkpoint
		cfg := row.cfg()
		cfg.Checkpoint = func(c Checkpoint) { cps = append(cps, c) }
		full, err := MultigridSchwarz(cfg, target)
		if err != nil {
			t.Fatal(err)
		}
		if len(cps) == 0 {
			t.Fatalf("%s: no checkpoints emitted", row.name)
		}
		total := cps[0].Total
		if len(cps) != total {
			t.Fatalf("%s: %d checkpoints for %d stages", row.name, len(cps), total)
		}
		for i, cp := range cps {
			if cp.Flow != "multigrid-schwarz" || cp.Stage != i+1 || cp.Total != total {
				t.Fatalf("%s: checkpoint %d malformed: %+v", row.name, i, cp)
			}
			if cp.Mask.H != testClip || cp.Mask.W != testClip {
				t.Fatalf("%s: checkpoint %d mask is %dx%d", row.name, i, cp.Mask.H, cp.Mask.W)
			}
		}

		// Resume from every stage, including the final one (pure replay
		// of the epilogue).
		refused := 0
		for _, cp := range cps {
			rcfg := row.cfg()
			rcfg.Resume = &cp
			res, err := MultigridSchwarz(rcfg, target)
			if rcfg.DropTol > 0 && errors.Is(err, ErrResumeDropout) {
				refused++
				continue
			}
			if err != nil {
				t.Fatalf("%s: resume from stage %d: %v", row.name, cp.Stage, err)
			}
			if !res.Mask.Equal(full.Mask) {
				t.Fatalf("%s: resume from stage %d/%d diverged from the uninterrupted run", row.name, cp.Stage, cp.Total)
			}
			if res.L2 != full.L2 || res.StitchLoss != full.StitchLoss {
				t.Fatalf("%s: resume from stage %d changed metrics", row.name, cp.Stage)
			}
		}
		if want := max(cfg.FineStages-1, 0); cfg.DropTol > 0 && refused != want {
			t.Fatalf("%s: %d resumes refused, want one per fine stage but the last (%d)", row.name, refused, want)
		}
	}
}

// TestResumeValidation rejects checkpoints that do not belong to the
// flow being resumed.
func TestResumeValidation(t *testing.T) {
	sim := testSim(t)
	target := testClipTarget(t, 7)

	good := Checkpoint{Flow: "multigrid-schwarz", Stage: 1, Total: 4, Mask: grid.NewMat(testClip, testClip)}
	bad := []Checkpoint{
		{Flow: "divide-and-conquer", Stage: 1, Total: 4, Mask: grid.NewMat(testClip, testClip)},
		{Flow: "multigrid-schwarz", Stage: 0, Total: 4, Mask: grid.NewMat(testClip, testClip)},
		{Flow: "multigrid-schwarz", Stage: 9, Total: 4, Mask: grid.NewMat(testClip, testClip)},
		{Flow: "multigrid-schwarz", Stage: 1, Total: 4, Mask: grid.NewMat(16, 16)},
	}
	for i := range bad {
		cfg := testConfig(t, sim, 4)
		cfg.Resume = &bad[i]
		if _, err := MultigridSchwarz(cfg, target); err == nil {
			t.Fatalf("bad checkpoint %d accepted: %+v", i, bad[i])
		}
	}
	cfg := testConfig(t, sim, 4)
	cfg.Resume = &good
	if _, err := MultigridSchwarz(cfg, target); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
}

// TestDivideAndConquerCheckpointResume covers the baseline flow's
// single-stage checkpoint: resuming skips the solve entirely and
// reproduces the assembled result.
func TestDivideAndConquerCheckpointResume(t *testing.T) {
	sim := testSim(t)
	target := testClipTarget(t, 7)

	var cps []Checkpoint
	cfg := testConfig(t, sim, 4)
	cfg.Solver = identitySolver{}
	cfg.Checkpoint = func(c Checkpoint) { cps = append(cps, c) }
	full, err := DivideAndConquer(cfg, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 || cps[0].Flow != "divide-and-conquer" || cps[0].Stage != 1 {
		t.Fatalf("checkpoints %+v", cps)
	}

	rcfg := testConfig(t, sim, 4)
	rcfg.Solver = failingSolver{} // must never be called on resume
	rcfg.Resume = &cps[0]
	res, err := DivideAndConquer(rcfg, target)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mask.Equal(full.Mask) {
		t.Fatal("resumed divide-and-conquer diverged")
	}
}

// TestFullChipCheckpointResume: full-chip became checkpointable when it
// moved onto the pipeline engine. Resuming its single-stage checkpoint
// must skip the solve entirely (the failingSolver proves it) and replay
// only the evaluation.
func TestFullChipCheckpointResume(t *testing.T) {
	sim := testSim(t)
	target := testClipTarget(t, 7)

	var cps []Checkpoint
	cfg := testConfig(t, sim, 4)
	cfg.Solver = identitySolver{}
	cfg.Checkpoint = func(c Checkpoint) { cps = append(cps, c) }
	full, err := FullChip(cfg, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 || cps[0].Flow != "full-chip" || cps[0].Stage != 1 || cps[0].Total != 1 {
		t.Fatalf("checkpoints %+v", cps)
	}

	rcfg := testConfig(t, sim, 4)
	rcfg.Solver = failingSolver{} // must never be called on resume
	rcfg.Resume = &cps[0]
	res, err := FullChip(rcfg, target)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mask.Equal(full.Mask) {
		t.Fatal("resumed full-chip diverged")
	}
	if res.L2 != full.L2 || res.PVBand != full.PVBand || res.StitchLoss != full.StitchLoss {
		t.Fatal("resumed full-chip changed metrics")
	}
}

// TestStitchAndHealCheckpointResume replays stitch-and-heal from each
// emitted checkpoint (the inner solve plus every healed line) and
// requires bit-identical masks, metrics and AuxLines — the healing
// windows' boundary geometry must survive a resume even though the
// skipped heal stages never re-execute.
func TestStitchAndHealCheckpointResume(t *testing.T) {
	sim := testSim(t)
	target := testClipTarget(t, 7)

	var cps []Checkpoint
	cfg := testConfig(t, sim, 4)
	cfg.Checkpoint = func(c Checkpoint) { cps = append(cps, c) }
	full, err := StitchAndHeal(cfg, target)
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) == 0 {
		t.Fatal("no checkpoints emitted")
	}
	total := cps[0].Total
	if len(cps) != total {
		t.Fatalf("%d checkpoints for %d stages", len(cps), total)
	}
	for i, cp := range cps {
		if cp.Flow != "stitch-and-heal" || cp.Stage != i+1 || cp.Total != total {
			t.Fatalf("checkpoint %d malformed: %+v", i, cp)
		}
	}

	for _, cp := range cps {
		rcfg := testConfig(t, sim, 4)
		rcfg.Resume = &cp
		res, err := StitchAndHeal(rcfg, target)
		if err != nil {
			t.Fatalf("resume from stage %d: %v", cp.Stage, err)
		}
		if !res.Mask.Equal(full.Mask) {
			t.Fatalf("resume from stage %d/%d diverged from the uninterrupted run", cp.Stage, cp.Total)
		}
		if res.L2 != full.L2 || res.StitchLoss != full.StitchLoss {
			t.Fatalf("resume from stage %d changed metrics", cp.Stage)
		}
		if len(res.AuxLines) != len(full.AuxLines) {
			t.Fatalf("resume from stage %d has %d aux lines, want %d", cp.Stage, len(res.AuxLines), len(full.AuxLines))
		}
		for i := range res.AuxLines {
			if res.AuxLines[i] != full.AuxLines[i] {
				t.Fatalf("resume from stage %d aux line %d = %+v, want %+v", cp.Stage, i, res.AuxLines[i], full.AuxLines[i])
			}
		}
		// The resumed run's timeline covers only the executed stages.
		if want := total - cp.Stage + 1; len(res.Timeline) != want { // +1 for "inspect"
			t.Fatalf("resume from stage %d timeline has %d entries, want %d", cp.Stage, len(res.Timeline), want)
		}
	}
}

type failingSolver struct{}

func (failingSolver) Solve(target, init *grid.Mat, p opt.Params) (*grid.Mat, error) {
	return nil, errors.New("solver must not run on resume")
}
func (failingSolver) Name() string { return "failing" }
