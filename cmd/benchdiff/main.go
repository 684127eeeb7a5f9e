// Command benchdiff compares a fresh `cmd/iltbench -json` document
// against a committed baseline and exits non-zero when a result moved.
//
//	go run ./cmd/iltbench -scale small -experiment table1,cache,scaling -json BENCH_fresh.json
//	go run ./cmd/benchdiff -baseline BENCH_baseline.json -current BENCH_fresh.json
//
// Every compared number is deterministic per code version, so the rule
// is exact equality (see internal/benchfmt.Compare): the provenance
// must match, and every cell and every method's L2 / PVBand / Stitch of
// the baseline must be present and equal in the current document. TAT
// is recorded, not compared; benchmark/ measures time end to end.
//
// Exit codes: 0 unchanged, 1 a compared number changed or is missing,
// 2 usage error, unreadable or incomparable documents, or nothing to
// compare.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"mgsilt/internal/benchfmt"
)

// errChanged reports that a compared number differs from the baseline.
var errChanged = errors.New("results differ from the baseline")

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
	}
	os.Exit(exitCode(err))
}

// exitCode maps run's error to the documented exit status.
func exitCode(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errChanged):
		return 1
	}
	return 2
}

// run compares the two documents named by args and writes the verdict
// to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	baselinePath := fs.String("baseline", "BENCH_baseline.json", "committed baseline document")
	currentPath := fs.String("current", "", "fresh iltbench -json document (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *currentPath == "" {
		return errors.New("-current is required")
	}
	base, err := benchfmt.ReadFile(*baselinePath)
	if err != nil {
		return err
	}
	cur, err := benchfmt.ReadFile(*currentPath)
	if err != nil {
		return err
	}
	res, err := benchfmt.Compare(base, cur)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "benchdiff: baseline %s (git %s) vs current %s (git %s)\n",
		base.GeneratedAt, base.GitDescribe, cur.GeneratedAt, cur.GitDescribe)
	fmt.Fprintf(stdout, "benchdiff: %d comparisons, %d changed\n", res.Checked, len(res.Changed))
	if res.Checked == 0 {
		return errors.New("no overlapping comparisons: vacuous pass refused")
	}
	for _, f := range res.Changed {
		fmt.Fprintf(stdout, "CHANGED %s\n", f)
	}
	if !res.OK() {
		return fmt.Errorf("%w: %d of %d compared numbers", errChanged, len(res.Changed), res.Checked)
	}
	fmt.Fprintln(stdout, "benchdiff: OK")
	return nil
}
