// Command iltrun executes one ILT flow on one synthetic clip and
// reports the paper's metrics plus the engine's per-stage wall-time
// timeline, optionally dumping mask/wafer/target images and a
// Fig. 8-style stitch-error overlay.
//
// With -checkpoint-file the run persists every completed stage's
// snapshot to disk (atomic rename), and -resume-file restarts a killed
// run from its last completed stage — the CLI equivalent of the job
// service's POST /v1/jobs/{id}/resume:
//
//	iltrun -method ours -checkpoint-file run.ckpt   # killed mid-flow
//	iltrun -method ours -resume-file run.ckpt       # resumes
//
// The resumed run's mask is bit-identical to the uninterrupted run's.
// With -drop-tol > 0 the checkpoint does not carry which tiles had
// converged, so a resume from between two fine stages fails
// (core.ErrResumeDropout) instead of re-solving tiles the uninterrupted
// run skipped; a resume from any other stage is bit-identical.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"mgsilt/internal/cache"
	"mgsilt/internal/core"
	"mgsilt/internal/device"
	"mgsilt/internal/fault"
	"mgsilt/internal/grid"
	"mgsilt/internal/imgio"
	"mgsilt/internal/layout"
	"mgsilt/internal/litho"
	"mgsilt/internal/metrics"
	"mgsilt/internal/mrc"
	"mgsilt/internal/opt"
	"mgsilt/internal/parallel"
	"mgsilt/internal/pipeline"
	"mgsilt/internal/sched"
	"mgsilt/internal/shard"
)

// methodRow is one -method: a core.Flow name plus the opt registry name
// of the solver it runs unless -solver names another.
type methodRow struct{ name, flow, solver string }

// methods are the -method rows in help order. Shard workers resolve the
// same registry name, so sharded runs solve with the identical instance.
// On the whole clip, fullchip's multilevel solver runs the
// 2 + log2(clip/N) pyramid of Table 1's Full-chip.
var methods = []methodRow{
	{"ours", "mgs", opt.DefaultSolver},
	{"dc-multilevel", "dc", "multilevel"},
	{"dc-gls", "dc", "levelset"},
	{"fullchip", "fullchip", "multilevel"},
	{"heal", "heal", "multilevel"},
}

func methodNames() []string {
	names := make([]string, len(methods))
	for i, m := range methods {
		names[i] = m.name
	}
	return names
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "iltrun:", err)
		os.Exit(1)
	}
}

// run parses args, runs the flow and writes the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("iltrun", flag.ContinueOnError)
	var (
		method    = fs.String("method", "ours", "flow: "+strings.Join(methodNames(), " | "))
		solverSel = fs.String("solver", "", "solver backend: "+strings.Join(opt.Names(), " | ")+" (empty = the method's default)")
		listSolve = fs.Bool("list-solvers", false, "print the registered solver names, one per line, and exit")
		mrcCheck  = fs.Bool("mrc", false, "check the final binarised mask against mrc.DefaultRules and print the verdict")
		n         = fs.Int("n", 128, "native simulator grid size (power of two)")
		seed      = fs.Int64("seed", 1, "clip generator seed")
		rects     = fs.String("rects", "", "optional .rects geometry file to optimise instead of a generated clip")
		iters     = fs.Int("iters", 100, "baseline iteration budget")
		devices   = fs.Int("devices", 1, "simulated devices")
		workers   = fs.Int("workers", 0, "compute pool width: a device solves ⌊width/devices⌋ tiles side by side, and a lone tile fans its FFTs and convolutions out (0 = ILT_WORKERS env or GOMAXPROCS)")
		outDir    = fs.String("out", "", "directory for PNG dumps (optional)")
		faultRate = fs.Float64("fault-rate", 0, "chaos: per-attempt transient fault probability at the device.run site (0 disables)")
		faultHard = fs.Float64("fault-hard", 0, "chaos: per-attempt hard device-failure probability (quarantines the device)")
		faultSeed = fs.Int64("fault-seed", 1, "chaos: deterministic fault-schedule seed")
		ckptFile  = fs.String("checkpoint-file", "", "persist each completed stage's checkpoint to this file (atomic replace), so a killed run can be resumed")
		resume    = fs.String("resume-file", "", "resume from a checkpoint file written by -checkpoint-file (flow and clip geometry must match)")
		times     = fs.Bool("stage-times", true, "print the engine's per-stage wall-time timeline")
		cacheMB   = fs.Int64("cache-mb", 0, "tile-result cache RAM budget in MiB (0 disables unless -cache-dir set)")
		cacheDir  = fs.String("cache-dir", "", "tile-cache disk spill directory (enables the cache; a warm dir short-circuits repeated runs)")
		batchSize = fs.Int("batch-size", 0, "largest lockstep batch of a round's tile solves (<2 disables batching)")
		repeat    = fs.Bool("repeat-cells", false, "optimise a repeated standard-cell clip (layout.GenerateRepeat) instead of random routing — the workload the tile cache accelerates")
		shardURLs = fs.String("shard-workers", "", "comma-separated iltworker base URLs; tile solves shard across them (byte-identical to in-process at any count)")
		correct   = fs.Bool("coarse-correct", false, "two-level Schwarz: run a coarse-grid correction between fine stages (method ours only)")
		dropTol   = fs.Float64("drop-tol", 0, "per-tile convergence dropout tolerance (per-pixel RMS; 0 disables; method ours only)")
		fineStg   = fs.Int("fine-stages", 0, "fine Schwarz stage count (0 = default; method ours only)")
		maskRaw   = fs.String("mask-raw", "", "write the final mask to this file in the versioned checkpoint format, for byte-level comparison (cmp) across runs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listSolve {
		for _, name := range opt.Names() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}
	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}

	sim, err := litho.NewStandard(*n)
	if err != nil {
		return err
	}

	clipSize := 2 * *n
	var clip *layout.Clip
	if *rects != "" {
		f, err := os.Open(*rects)
		if err != nil {
			return err
		}
		clip, err = layout.ReadRects(f)
		f.Close()
		if err != nil {
			return err
		}
		if clip.Target.H != clipSize {
			return fmt.Errorf("rects clip is %d px, need %d (= 2N)", clip.Target.H, clipSize)
		}
	} else if *repeat {
		var err error
		clip, err = layout.GenerateRepeat(layout.RepeatConfig{Size: clipSize, Seed: *seed})
		if err != nil {
			return err
		}
	} else {
		var err error
		clip, err = layout.Generate(layout.DefaultConfig(clipSize, *seed))
		if err != nil {
			return err
		}
	}

	cfg := core.DefaultConfig(sim, clipSize, *iters)
	cfg.Cluster, err = device.NewCluster(*devices, 0)
	if err != nil {
		return err
	}
	if *faultRate < 0 || *faultHard < 0 || *faultRate+*faultHard > 1 {
		return fmt.Errorf("fault rates %g/%g invalid (each >= 0, sum <= 1)", *faultRate, *faultHard)
	}
	if *cacheMB > 0 || *cacheDir != "" {
		tc, err := cache.New(cache.Options{MaxBytes: *cacheMB << 20, Dir: *cacheDir})
		if err != nil {
			return err
		}
		cfg.TileCache = tc
	}
	if *batchSize >= 2 {
		cfg.Batch = sched.New(sched.Options{BatchSize: *batchSize})
	}
	// Method selection: the -solver registry name wins over the
	// method's default. Resolving through opt.New here and shipping the
	// same name to shard workers keeps distributed runs byte-identical to
	// in-process ones.
	i := slices.IndexFunc(methods, func(m methodRow) bool { return m.name == *method })
	if i < 0 {
		return fmt.Errorf("unknown method %q (flows: %s)", *method, strings.Join(methodNames(), " | "))
	}
	flow, err := core.Flow(methods[i].flow)
	if err != nil {
		return err
	}
	solverName := cmp.Or(*solverSel, methods[i].solver)
	if cfg.Solver, err = opt.New(solverName, sim); err != nil {
		return err // the registry error lists the registered names
	}

	// Remote tile sharding: the flow's tile fan-out goes through a
	// shard coordinator instead of the local cluster. The worker-side
	// solver name must match this process's choice, or the distributed
	// result would diverge from the in-process one.
	var coord *shard.Coordinator
	if *shardURLs != "" {
		coord, err = shard.NewCoordinator(shard.Config{
			Workers: strings.Split(*shardURLs, ","),
			N:       *n,
			Solver:  solverName,
			RunID:   fmt.Sprintf("iltrun-%d", os.Getpid()),
		})
		if err != nil {
			return err
		}
		cfg.Tiles = coord
	}
	cfg.CoarseCorrect = *correct
	cfg.DropTol = *dropTol
	if *fineStg > 0 {
		cfg.FineStages = *fineStg
	}
	chaos := *faultRate > 0 || *faultHard > 0
	if chaos {
		cfg.Cluster.Injector = fault.NewSeeded(*faultSeed, fault.Rates{Transient: *faultRate, Hard: *faultHard})
		cfg.Cluster.Retry = &fault.Retry{}
	}

	// Checkpoint/resume persistence: every completed stage's snapshot
	// is atomically replaced on disk, so a SIGKILL between stages costs
	// at most the interrupted stage on the next -resume-file run.
	if *resume != "" {
		ck, err := pipeline.ReadCheckpointFile(*resume)
		if err != nil {
			return err
		}
		cfg.Resume = ck
		fmt.Fprintf(os.Stderr, "iltrun: resuming %s after stage %d/%d\n", ck.Flow, ck.Stage, ck.Total)
	}
	if *ckptFile != "" {
		path := *ckptFile
		cfg.Checkpoint = func(ck core.Checkpoint) {
			if err := pipeline.WriteCheckpointFile(path, &ck); err != nil {
				// A failed snapshot must not kill the optimisation; the
				// run simply loses resumability from this stage.
				fmt.Fprintln(os.Stderr, "iltrun: checkpoint:", err)
			}
		}
	}

	res, err := flow(cfg, clip.Target)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "method       : %s\n", res.Method)
	fmt.Fprintf(stdout, "solver       : %s\n", solverName)
	fmt.Fprintf(stdout, "clip         : %s (seed %d, %dx%d, area %d px)\n", clip.ID, clip.Seed, clipSize, clipSize, clip.AreaPx())
	fmt.Fprintf(stdout, "L2           : %.0f\n", res.L2)
	fmt.Fprintf(stdout, "PVBand       : %.0f\n", res.PVBand)
	fmt.Fprintf(stdout, "stitch loss  : %.1f over %d crossings (max %.1f)\n", res.StitchLoss, len(res.Errors), metrics.MaxLoss(res.Errors))
	fmt.Fprintf(stdout, "errors > %.0f : %d\n", metrics.StitchThreshold, metrics.CountAbove(res.Errors, metrics.StitchThreshold))
	fmt.Fprintf(stdout, "TAT          : %v (devices: %d, device busy: %v)\n", res.TAT.Round(1e6), *devices, res.Stats.TotalBusy.Round(1e6))
	if *mrcCheck {
		rep, err := mrc.Check(res.Mask.Binarize(0.5), mrc.DefaultRules())
		if err != nil {
			return err
		}
		if rep.Clean() {
			fmt.Fprintf(stdout, "mrc          : clean\n")
		} else {
			fmt.Fprintf(stdout, "mrc          : %d violations\n", rep.Total())
		}
	}
	if chaos {
		fmt.Fprintf(stdout, "chaos        : %d retries, %d device(s) quarantined (reproduce with -fault-seed %d -fault-rate %g -fault-hard %g)\n",
			res.Stats.Retries, res.Stats.Quarantined, *faultSeed, *faultRate, *faultHard)
	}
	if *correct || *dropTol > 0 {
		fmt.Fprintf(stdout, "two-level    : %d coarse corrections; dropout: %d tiles converged, %d solves skipped (tol %g)\n",
			res.CoarseCorrections, res.TilesConverged, res.TileSolvesSkipped, *dropTol)
	}
	if cfg.TileCache != nil {
		cs := cfg.TileCache.Stats()
		fmt.Fprintf(stdout, "cache        : %.1f%% hit rate (%d ram + %d disk hits, %d misses, %d merged; %d entries, %.1f MiB)\n",
			100*cs.HitRate(), cs.Hits, cs.DiskHits, cs.Misses, cs.Merged, cs.Entries, float64(cs.Bytes)/(1<<20))
	}
	if cfg.Batch != nil {
		bs := cfg.Batch.Stats()
		fmt.Fprintf(stdout, "batch        : %d solves in %d batches (%d shared a batch, largest %d)\n",
			bs.Requests, bs.Batches, bs.Batched, bs.MaxBatch)
	}
	if coord != nil {
		ss := coord.Stats()
		fmt.Fprintf(stdout, "shard        : %d tiles over %d/%d workers in %d rounds (%d reassigned, %d quarantined, %d retries)\n",
			ss.Tiles, coord.LiveWorkers(), len(strings.Split(*shardURLs, ",")), ss.Rounds,
			ss.ReassignedTiles, ss.WorkersQuarantined, ss.RequestRetries)
		fmt.Fprintf(stdout, "shard bytes  : %.2f MiB halo + %.2f MiB full\n",
			float64(ss.HaloBytes)/(1<<20), float64(ss.FullBytes)/(1<<20))
	}
	if *times && len(res.Timeline) > 0 {
		fmt.Fprintf(stdout, "stages       : %d executed\n", len(res.Timeline))
		for _, st := range res.Timeline {
			fmt.Fprintf(stdout, "  %-8s %2d/%-2d %9.1f ms\n", st.Name, st.Iter, st.Total, float64(st.Wall.Microseconds())/1e3)
		}
	}

	// The raw dump reuses the versioned checkpoint encoding, so two
	// bit-identical runs produce byte-identical files — what the CI
	// shard-equivalence job compares with cmp.
	if *maskRaw != "" {
		ck := &core.Checkpoint{Flow: res.Method, Stage: 1, Total: 1, Mask: res.Mask}
		if err := pipeline.WriteCheckpointFile(*maskRaw, ck); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *maskRaw)
	}

	if *outDir == "" {
		return nil
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	binary := res.Mask.Binarize(0.5)
	dumps := []struct {
		name string
		m    *grid.Mat
	}{
		{"target.png", clip.Target},
		{"mask.png", binary},
		{"wafer.png", sim.Wafer(binary, sim.Nominal())},
		{"overlay.png", imgio.Overlay(binary, res.Errors, metrics.StitchThreshold, cfg.Stitch.Window/2)},
	}
	for _, d := range dumps {
		path := filepath.Join(*outDir, d.name)
		if err := imgio.SavePNG(path, d.m); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	return nil
}
