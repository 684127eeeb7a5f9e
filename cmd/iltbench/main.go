// Command iltbench regenerates the paper's tables and figures on the
// synthetic evaluation suite. Experiments:
//
//	table1   — the Table 1 method comparison (L2 / PVBand / Stitch / TAT)
//	fig6     — weighted smoothing (Eq. 14) vs hard RAS (Eq. 6) assembly
//	fig7     — stitch-and-heal leaves errors at its new boundaries
//	fig8     — count of stitch errors above the threshold per method
//	speedup  — multigrid-Schwarz TAT on 1..K simulated devices, one lane
//	           per device (pool width 1, whatever -workers says)
//	penalty  — Section 2.3 tile-assembly L2 penalty
//	ablation — design-choice sweep of the multigrid-Schwarz flow
//	mrc      — manufacturability-rule violations at stitch lines
//	cache    — shared tile-cache cold vs warm on a repeated-cell clip
//	scaling  — two-level vs one-level Schwarz iterations-to-quality on
//	           2×2 → 8×8 tile grids, plus the convergence-dropout rate
//	all      — everything above
//
// Scale is selected with -scale (small | default | full); "full" is
// the paper-shaped 20-clip run. -experiment accepts a comma-separated
// list (e.g. "table1,cache"), which is how the CI gate records both
// the Table 1 metrics and the cache hit rate in one document. The whole
// list is checked before the first experiment runs.
//
// With -json the run also writes a benchfmt trajectory document
// (BENCH_*.json) carrying its provenance and deterministic cells, which
// cmd/benchdiff compares against a committed baseline.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"mgsilt/internal/bench"
	"mgsilt/internal/benchfmt"
	"mgsilt/internal/opt"
	"mgsilt/internal/parallel"
	"mgsilt/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "iltbench:", err)
		os.Exit(1)
	}
}

// experimentNames lists the experiments in the order "all" runs them.
var experimentNames = []string{"table1", "fig6", "fig7", "fig8", "speedup", "penalty", "ablation", "mrc", "cache", "scaling"}

// renderer is what every experiment result is: a table source.
type renderer interface{ Render() *report.Table }

// rendered converts an experiment's typed result to a renderer.
func rendered[R renderer](res R, err error) (renderer, error) { return res, err }

// run parses args, runs the selected experiments and writes their
// tables to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("iltbench", flag.ContinueOnError)
	var (
		scaleName  = fs.String("scale", "small", "experiment scale: small | default | full")
		experiment = fs.String("experiment", "table1", "comma-separated list of "+strings.Join(experimentNames, " | ")+", or all")
		solverSel  = fs.String("solver", "", "solver backend for the \"Ours\" flow rows: "+strings.Join(opt.Names(), " | ")+" (empty = pixel; recorded in -json provenance)")
		csv        = fs.Bool("csv", false, "emit CSV instead of aligned text")
		jsonPath   = fs.String("json", "", "also write machine-readable per-method metrics JSON to this file")
		verbose    = fs.Bool("v", false, "print per-run progress")
		devices    = fs.Int("devices", 4, "maximum simulated devices for the speedup sweep (which runs at pool width 1)")
		workers    = fs.Int("workers", 0, "compute pool width: a device solves ⌊width/devices⌋ tiles side by side, and a lone tile fans its FFTs and convolutions out (0 = ILT_WORKERS env or GOMAXPROCS)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU pprof profile of the experiment run to this file")
		memProfile = fs.String("memprofile", "", "write a heap pprof profile (taken after the run) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
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
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	selected := experimentNames
	if *experiment != "all" {
		selected = strings.Split(*experiment, ",")
		for i, name := range selected {
			selected[i] = strings.TrimSpace(name)
			if !slices.Contains(experimentNames, selected[i]) {
				return fmt.Errorf("unknown experiment %q", name)
			}
		}
	}
	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}

	progress := func(string) {}
	if *verbose {
		progress = func(s string) { fmt.Fprintf(os.Stderr, "... %s\n", s) }
	}

	env, err := bench.NewEnv(scale)
	if err != nil {
		return err
	}
	if *solverSel != "" {
		if env.Solver, err = opt.New(*solverSel, env.Sim); err != nil {
			return err
		}
	}
	doc := benchfmt.Doc{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Provenance: map[string]string{
			"scale":   scale.Name,
			"n":       strconv.Itoa(scale.N),
			"clip":    strconv.Itoa(scale.Clip),
			"cases":   strconv.Itoa(scale.Cases),
			"iters":   strconv.Itoa(scale.Iters),
			"kernels": env.KernelProvenance(),
			"solver":  cmp.Or(*solverSel, opt.DefaultSolver),
		},
		Workers:     parallel.Workers(),
		GitDescribe: gitDescribe(),
		Cells:       map[string]float64{},
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	for _, name := range selected {
		var (
			title string
			res   renderer
			err   error
		)
		switch name {
		case "table1":
			title = "Table 1: method comparison"
			res, err = rendered(env.RunTable1(progress))
		case "fig6":
			title = "Fig. 6: weighted smoothing ablation"
			res, err = rendered(env.RunFig6(progress))
		case "fig7":
			title = "Fig. 7: stitch-and-heal critique"
			res, err = rendered(env.RunFig7(progress))
		case "fig8":
			title = "Fig. 8: stitch errors above threshold"
			res, err = rendered(env.RunFig8(progress))
		case "speedup":
			title = "Section 4: parallel speedup at pool width 1"
			res, err = rendered(env.RunSpeedup(*devices, 2, progress))
		case "penalty":
			title = "Section 2.3: tile-assembly penalty"
			res, err = rendered(env.RunPenalty(progress))
		case "ablation":
			title = "Ablations: multigrid-Schwarz design choices"
			res, err = rendered(env.RunAblations(progress))
		case "mrc":
			title = "MRC: rule violations at stitch lines"
			res, err = rendered(env.RunMRC(progress))
		case "cache":
			title = "Serving: shared tile cache, cold vs warm"
			res, err = rendered(env.RunCache(progress))
		case "scaling":
			title = "Scaling: two-level vs one-level Schwarz by tile count"
			res, err = rendered(env.RunScaling(progress))
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		var methods []benchfmt.Method
		switch r := res.(type) {
		case *bench.Table1Result:
			for i, m := range r.Methods {
				methods = append(methods, benchfmt.Method{Name: m, Metrics: r.Average[i], Ratio: r.Ratio[i]})
			}
		case *bench.CacheResult:
			doc.Cells["cache_hit_rate"] = r.WarmHitRate()
		case *bench.ScalingResult:
			doc.Cells["iterations_to_quality"] = r.IterationsToQuality()
			doc.Cells["tiles_dropped_rate"] = r.DroppedRate()
		}

		tab := res.Render()
		fmt.Fprintf(stdout, "== %s (scale=%s, N=%d, clip=%d, %d cases, %d iters, %d workers)\n",
			title, scale.Name, scale.N, scale.Clip, scale.Cases, scale.Iters, parallel.Workers())
		if *csv {
			err = tab.FprintCSV(stdout)
		} else {
			err = tab.Fprint(stdout)
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		doc.Experiments = append(doc.Experiments, benchfmt.Experiment{
			Name:    name,
			Methods: methods,
			Headers: tab.Headers(),
			Rows:    tab.Rows(),
		})
	}

	if *jsonPath != "" {
		if err := doc.WriteFile(*jsonPath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "iltbench: wrote %s\n", *jsonPath)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		runtime.GC() // materialise the retained heap before snapshotting
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "iltbench: wrote %s\n", *memProfile)
	}
	return nil
}

// gitDescribe records the producing tree for artifact forensics;
// empty when git (or the repository) is unavailable.
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
