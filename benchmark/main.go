// Command benchmark is the repository's benchmark: four workloads,
// end-to-end turn-around/quality/memory metrics and a per-layer time
// budget, all measured from outside the program under test — by timing
// calls into exported functions, reading the stats it already exports
// and wrapping its two public seams. BENCHMARK.json at the repository
// root declares it; README.md in this directory is the catalogue.
//
//	bash benchmark/run.sh --workload ours-256 --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload ours-256 --trace 1 -trace-out trace.json
//	bash benchmark/run.sh -suite 10 -record a.jsonl
//	bash benchmark/run.sh -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		o            options
		trace        int
		record       string
		suite        int
		compare      bool
		emitManifest bool
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: ours-256 | manytile-512 | cells-512 | served-sharded")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the timed pass")
	flag.IntVar(&trace, "trace", 0, "0: timed pass, end-to-end metrics; 1: traced pass and probes, per-layer metrics")
	flag.BoolVar(&o.toy, "toy", false, "smoke-test scale; the numbers mean nothing")
	flag.StringVar(&o.tmp, "tmp", "", "scratch directory (default: a fresh one under the system temp dir)")
	flag.StringVar(&o.traceOut, "trace-out", "", "with --trace 1: write the spans here as Chrome trace-event JSON")
	flag.StringVar(&record, "record", "", "append this run's result and provenance to a JSON-lines file, for -compare")
	flag.IntVar(&suite, "suite", 0, "run every workload at seeds 1..N, one child process each, recording to -record")
	flag.BoolVar(&compare, "compare", false, "compare two -record files: -compare a.jsonl b.jsonl")
	flag.BoolVar(&emitManifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	o.trace = trace != 0
	o.log = os.Stderr

	switch {
	case emitManifest:
		b, err := manifest()
		if err != nil {
			return fail(err)
		}
		os.Stdout.Write(b)
		return 0
	case compare:
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two record files"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	case suite > 0:
		if record == "" {
			return fail(fmt.Errorf("-suite needs -record"))
		}
		if err := runSuite(suite, o, trace, record); err != nil {
			return fail(err)
		}
		return 0
	}

	if o.tmp == "" {
		dir, err := os.MkdirTemp("", "mgsilt-benchmark-")
		if err != nil {
			return fail(err)
		}
		defer os.RemoveAll(dir)
		o.tmp = dir
	} else if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return fail(err)
	}

	res, info, err := run(o)
	if err != nil {
		return fail(err)
	}
	if record != "" {
		if err := appendRecord(record, o, info, res); err != nil {
			return fail(err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}
