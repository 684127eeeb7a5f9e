// Command iltserver runs the ILT job service: a long-lived HTTP
// server that accepts ILT jobs (flow + clip + config knobs), queues
// them onto a bounded worker pool of simulated accelerator clusters,
// and exposes progress, results, cancellation and Prometheus metrics.
// Every flow runs on the stage-pipeline engine, so every job reports
// an engine-measured stage_timeline in its status JSON, checkpoints
// after each completed stage, and can be resumed bit-identically via
// POST /v1/jobs/{id}/resume after a failure or cancellation.
//
// Quickstart (see README.md for the full curl walkthrough):
//
//	go run ./cmd/iltserver -addr :8080 -workers 2 -devices 4
//	curl -s -X POST localhost:8080/v1/jobs -d '{"flow":"mgs","n":64,"iters":20}'
//	curl -s localhost:8080/v1/jobs/j000001
//	curl -s localhost:8080/v1/jobs/j000001/result
//	curl -s localhost:8080/v1/jobs/j000001/mask.pgm -o mask.pgm
//	curl -s -X DELETE localhost:8080/v1/jobs/j000001
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes, new
// submits are refused, and in-flight jobs drain until -drain expires,
// after which they are cancelled mid-iteration.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mgsilt/internal/opt"
	"mgsilt/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 2, "concurrent jobs (worker pool size)")
		devices   = flag.Int("devices", 1, "simulated devices per worker cluster")
		queue     = flag.Int("queue", 64, "job queue capacity")
		timeout   = flag.Duration("timeout", 0, "default per-job deadline (0 = none)")
		drain     = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
		maxN      = flag.Int("max-n", 256, "largest accepted simulator grid")
		compute   = flag.Int("compute-workers", 0, "process-wide compute pool width for FFT/convolution fan-out (0 = ILT_WORKERS env or GOMAXPROCS)")
		faultRate = flag.Float64("fault-rate", 0, "chaos: per-attempt transient fault probability at the device.run site (0 disables)")
		faultSeed = flag.Int64("fault-seed", 1, "chaos: deterministic fault-schedule seed (used with -fault-rate)")
		cacheMB   = flag.Int64("cache-mb", 0, "shared tile-result cache RAM budget in MiB (0 disables unless -cache-dir set)")
		cacheDir  = flag.String("cache-dir", "", "tile-cache disk spill directory (enables the cache; survives restarts)")
		batchSize = flag.Int("batch-size", 0, "largest lockstep batch of a round's tile solves (<2 disables batching)")
		stateDir  = flag.String("state-dir", "", "durable job-queue journal directory; pending jobs resume after a restart")
		shardURLs = flag.String("shard-workers", "", "comma-separated iltworker base URLs; every job's tile solves shard across them (byte-identical to in-process)")
		solverSel = flag.String("solver", "", "default solver backend for jobs that do not set solver: "+strings.Join(opt.Names(), " | "))
		correct   = flag.Bool("coarse-correct", false, "default two-level Schwarz coarse correction for jobs that do not override coarse_correct")
		dropTol   = flag.Float64("drop-tol", 0, "default per-tile convergence dropout tolerance for jobs that do not override drop_tol (0 disables)")
		fidelity  = flag.String("fidelity", "", "default per-fine-stage kernel energy budgets for jobs that do not override fidelity_schedule, e.g. 0.75,1 (empty = full fidelity)")
	)
	flag.Parse()

	if *solverSel != "" && !opt.Known(*solverSel) {
		fatal(fmt.Errorf("%w %q (registered: %v)", opt.ErrUnknownSolver, *solverSel, opt.Names()))
	}
	var shardWorkers []string
	if *shardURLs != "" {
		shardWorkers = strings.Split(*shardURLs, ",")
	}
	var fidSched []float64
	if *fidelity != "" {
		for _, tok := range strings.Split(*fidelity, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				fatal(fmt.Errorf("fidelity schedule %q: %w", *fidelity, err))
			}
			fidSched = append(fidSched, f)
		}
	}

	srv, err := service.New(service.Options{
		Workers:          *workers,
		DevicesPerWorker: *devices,
		QueueCap:         *queue,
		DefaultTimeout:   *timeout,
		MaxN:             *maxN,
		ComputeWorkers:   *compute,
		FaultRate:        *faultRate,
		FaultSeed:        *faultSeed,
		CacheBytes:       *cacheMB << 20,
		CacheDir:         *cacheDir,
		BatchSize:        *batchSize,
		StateDir:         *stateDir,
		ShardWorkers:     shardWorkers,
		DefaultSolver:    *solverSel,
		CoarseCorrect:    *correct,
		DropTol:          *dropTol,
		FidelitySchedule: fidSched,
	})
	if err != nil {
		fatal(err)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "iltserver: listening on %s (%d workers x %d devices)\n", *addr, *workers, *devices)
		if *faultRate > 0 {
			fmt.Fprintf(os.Stderr, "iltserver: chaos injection enabled (rate %g, seed %d) — reproduce with -fault-rate %g -fault-seed %d\n",
				*faultRate, *faultSeed, *faultRate, *faultSeed)
		}
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	fmt.Fprintln(os.Stderr, "iltserver: shutting down, draining jobs...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "iltserver: http shutdown:", err)
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "iltserver: drain budget exceeded, jobs cancelled:", err)
	}
	fmt.Fprintln(os.Stderr, "iltserver: bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "iltserver:", err)
	os.Exit(1)
}
