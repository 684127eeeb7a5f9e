// Command iltbench regenerates the paper's tables and figures on the
// synthetic evaluation suite. Experiments:
//
//	table1   — the Table 1 method comparison (L2 / PVBand / Stitch / TAT)
//	fig6     — weighted smoothing (Eq. 14) vs hard RAS (Eq. 6) assembly
//	fig7     — stitch-and-heal leaves errors at its new boundaries
//	fig8     — count of stitch errors above the threshold per method
//	speedup  — multigrid-Schwarz TAT on 1..K simulated devices
//	penalty  — Section 2.3 tile-assembly L2 penalty
//	ablation — design-choice sweep of the multigrid-Schwarz flow
//	mrc      — manufacturability-rule violations at stitch lines
//	cache    — shared tile-cache cold vs warm on a repeated-cell clip
//	scaling  — two-level vs one-level Schwarz iterations-to-quality on
//	           2×2 → 8×8 tile grids, plus the convergence-dropout rate
//	solvers  — every registered opt backend under the "Ours" flow on
//	           the first clip, with the ADMM-vs-Pixel L2 gate
//	all      — everything above
//
// Scale is selected with -scale (small | default | full); "full" is
// the paper-shaped 20-clip run. -experiment accepts a comma-separated
// list (e.g. "table1,cache"), which is how the CI gate records both
// the Table 1 metrics and the cache hit rate in one document.
//
// With -json the run also writes a benchfmt trajectory document
// (BENCH_*.json) carrying full provenance — scale, optics, compute
// pool width, git describe, and a host-calibration measurement — so
// cmd/benchdiff can gate PRs against a committed baseline without
// ever comparing incomparable runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mgsilt/internal/bench"
	"mgsilt/internal/benchfmt"
	"mgsilt/internal/opt"
	"mgsilt/internal/parallel"
	"mgsilt/internal/report"
)

func main() {
	var (
		scaleName  = flag.String("scale", "small", "experiment scale: small | default | full")
		experiment = flag.String("experiment", "table1", "comma-separated list of table1 | fig6 | fig7 | fig8 | speedup | penalty | ablation | mrc | cache | scaling | solvers, or all")
		solverSel  = flag.String("solver", "", "solver backend for the \"Ours\" flow rows: "+strings.Join(opt.Names(), " | ")+" (empty = pixel; recorded in -json provenance)")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned text")
		jsonPath   = flag.String("json", "", "also write machine-readable per-method metrics JSON to this file")
		verbose    = flag.Bool("v", false, "print per-run progress")
		devices    = flag.Int("devices", 4, "maximum simulated devices for the speedup sweep")
		workers    = flag.Int("workers", 0, "compute pool width for FFT/convolution fan-out (0 = ILT_WORKERS env or GOMAXPROCS)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU pprof profile of the experiment run to this file")
		memProfile = flag.String("memprofile", "", "write a heap pprof profile (taken after the run) to this file")
	)
	flag.Parse()
	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}

	var scale bench.Scale
	switch *scaleName {
	case "small":
		scale = bench.ScaleSmall
	case "default":
		scale = bench.ScaleDefault
	case "full":
		scale = bench.ScaleFull
	default:
		fmt.Fprintf(os.Stderr, "iltbench: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	progress := func(string) {}
	if *verbose {
		progress = func(s string) { fmt.Fprintf(os.Stderr, "... %s\n", s) }
	}

	env, err := bench.NewEnv(scale)
	if err != nil {
		fatal(err)
	}
	if *solverSel != "" {
		if !opt.Known(*solverSel) {
			fatal(fmt.Errorf("%w %q (registered: %v)", opt.ErrUnknownSolver, *solverSel, opt.Names()))
		}
		env.Solver = *solverSel
	}

	doc := benchfmt.Doc{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Scale:       scale.Name,
		N:           scale.N,
		Clip:        scale.Clip,
		Cases:       scale.Cases,
		Iters:       scale.Iters,
		Workers:     parallel.Workers(),
		Kernels:     env.KernelProvenance(),
		GitDescribe: gitDescribe(),
	}
	// The bench harness always runs its flows in-process, which is
	// shard count 1 by definition; recording it explicitly keeps these
	// documents comparable with (and only with) future unsharded runs.
	shardCount := 1
	doc.ShardCount = &shardCount
	// Solver provenance is tri-state: untouched runs leave it nil
	// (≡ "pixel"), keeping documents comparable with pre-registry
	// baselines; an explicit -solver pins the document to that backend.
	if *solverSel != "" {
		doc.Solver = solverSel
	}
	if *jsonPath != "" {
		// Calibrate before running experiments so the measurement is
		// taken on an otherwise-quiet process, and record the hot-path
		// allocation count while the heap is equally quiet. Both happen
		// before CPU profiling starts so neither pollutes the profile.
		doc.CalibNS = benchfmt.Calibrate()
		allocs := env.MeasureLossGradAllocs()
		doc.LossGradAllocs = &allocs
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	emit := func(name, title string, tab *report.Table, methods []benchfmt.Method) {
		fmt.Printf("== %s (scale=%s, N=%d, clip=%d, %d cases, %d iters, %d workers)\n",
			title, scale.Name, scale.N, scale.Clip, scale.Cases, scale.Iters, parallel.Workers())
		var err error
		if *csv {
			err = tab.FprintCSV(os.Stdout)
		} else {
			err = tab.Fprint(os.Stdout)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println()
		if *jsonPath != "" {
			doc.Experiments = append(doc.Experiments, benchfmt.Experiment{
				Name:    name,
				Methods: methods,
				Headers: tab.Headers(),
				Rows:    tab.Rows(),
			})
		}
	}

	run := func(name string) {
		switch name {
		case "table1":
			res, err := env.RunTable1(progress)
			if err != nil {
				fatal(err)
			}
			var methods []benchfmt.Method
			for i, m := range res.Methods {
				methods = append(methods, benchfmt.Method{Name: m, Metrics: res.Average[i], Ratio: res.Ratio[i]})
			}
			emit(name, "Table 1: method comparison", res.Render(), methods)
		case "fig6":
			res, err := env.RunFig6(progress)
			if err != nil {
				fatal(err)
			}
			emit(name, "Fig. 6: weighted smoothing ablation", res.Render(), nil)
		case "fig7":
			res, err := env.RunFig7(progress)
			if err != nil {
				fatal(err)
			}
			emit(name, "Fig. 7: stitch-and-heal critique", res.Render(), nil)
		case "fig8":
			res, err := env.RunFig8(progress)
			if err != nil {
				fatal(err)
			}
			emit(name, "Fig. 8: stitch errors above threshold", res.Render(), nil)
		case "speedup":
			res, err := env.RunSpeedup(*devices, 2, progress)
			if err != nil {
				fatal(err)
			}
			emit(name, "Section 4: parallel speedup", res.Render(), nil)
		case "penalty":
			res, err := env.RunPenalty(progress)
			if err != nil {
				fatal(err)
			}
			emit(name, "Section 2.3: tile-assembly penalty", res.Render(), nil)
		case "ablation":
			res, err := env.RunAblations(progress)
			if err != nil {
				fatal(err)
			}
			emit(name, "Ablations: multigrid-Schwarz design choices", res.Render(), nil)
		case "mrc":
			res, err := env.RunMRC(progress)
			if err != nil {
				fatal(err)
			}
			emit(name, "MRC: rule violations at stitch lines", res.Render(), nil)
		case "cache":
			res, err := env.RunCache(progress)
			if err != nil {
				fatal(err)
			}
			if *jsonPath != "" {
				hr := res.WarmHitRate()
				doc.CacheHitRate = &hr
			}
			emit(name, "Serving: shared tile cache, cold vs warm", res.Render(), nil)
		case "scaling":
			res, err := env.RunScaling(progress)
			if err != nil {
				fatal(err)
			}
			if *jsonPath != "" {
				itq := res.IterationsToQuality()
				doc.IterationsToQuality = &itq
				dr := res.DroppedRate()
				doc.TilesDroppedRate = &dr
			}
			emit(name, "Scaling: two-level vs one-level Schwarz by tile count", res.Render(), nil)
		case "solvers":
			res, err := env.RunSolvers(progress)
			if err != nil {
				fatal(err)
			}
			emit(name, "Solvers: registered backends under the ours flow", res.Render(), nil)
		default:
			fmt.Fprintf(os.Stderr, "iltbench: unknown experiment %q\n", name)
			os.Exit(2)
		}
	}

	if *experiment == "all" {
		for _, name := range []string{"table1", "fig6", "fig7", "fig8", "speedup", "penalty", "ablation", "mrc", "cache", "scaling", "solvers"} {
			run(name)
		}
	} else {
		for _, name := range strings.Split(*experiment, ",") {
			run(strings.TrimSpace(name))
		}
	}

	if *jsonPath != "" {
		if err := doc.WriteFile(*jsonPath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "iltbench: wrote %s\n", *jsonPath)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC() // materialise the retained heap before snapshotting
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "iltbench: wrote %s\n", *memProfile)
	}
}

// gitDescribe records the producing tree for artifact forensics;
// empty when git (or the repository) is unavailable, which benchdiff
// tolerates — it gates on semantic provenance, not on tree identity.
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "iltbench:", err)
	os.Exit(1)
}
