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
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mgsilt/internal/parallel"
	"mgsilt/internal/service"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "iltserver:", err)
		os.Exit(1)
	}
}

// run parses args and serves until ctx is cancelled, then drains the
// in-flight jobs for at most -drain. Log lines go to stderr.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("iltserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		workers   = fs.Int("workers", 2, "concurrent jobs (worker pool size)")
		devices   = fs.Int("devices", 1, "simulated devices per worker cluster")
		queue     = fs.Int("queue", 64, "job queue capacity")
		timeout   = fs.Duration("timeout", 0, "default per-job deadline (0 = none)")
		drain     = fs.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
		maxN      = fs.Int("max-n", 256, "largest accepted simulator grid")
		compute   = fs.Int("compute-workers", 0, "process-wide compute pool width: a device solves ⌊width/devices⌋ tiles side by side, and a lone tile fans its FFTs and convolutions out (0 = ILT_WORKERS env or GOMAXPROCS)")
		faultRate = fs.Float64("fault-rate", 0, "chaos: per-attempt transient fault probability at the device.run site (0 disables)")
		faultSeed = fs.Int64("fault-seed", 1, "chaos: deterministic fault-schedule seed (used with -fault-rate)")
		cacheMB   = fs.Int64("cache-mb", 0, "shared tile-result cache RAM budget in MiB (0 disables unless -cache-dir set)")
		cacheDir  = fs.String("cache-dir", "", "tile-cache disk spill directory (enables the cache; survives restarts)")
		batchSize = fs.Int("batch-size", 0, "largest lockstep batch of a round's tile solves (<2 disables batching)")
		stateDir  = fs.String("state-dir", "", "durable job-queue journal directory; pending jobs resume after a restart")
		shardURLs = fs.String("shard-workers", "", "comma-separated iltworker base URLs; every job's tile solves shard across them (byte-identical to in-process)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var shardWorkers []string
	if *shardURLs != "" {
		shardWorkers = strings.Split(*shardURLs, ",")
	}

	if *compute > 0 {
		parallel.SetWorkers(*compute)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv, err := service.New(service.Options{
		Workers:          *workers,
		DevicesPerWorker: *devices,
		QueueCap:         *queue,
		DefaultTimeout:   *timeout,
		MaxN:             *maxN,
		FaultRate:        *faultRate,
		FaultSeed:        *faultSeed,
		CacheBytes:       *cacheMB << 20,
		CacheDir:         *cacheDir,
		BatchSize:        *batchSize,
		StateDir:         *stateDir,
		ShardWorkers:     shardWorkers,
	})
	if err != nil {
		ln.Close()
		return err
	}

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	fmt.Fprintf(stderr, "iltserver: listening on %s (%d workers x %d devices)\n", ln.Addr(), *workers, *devices)
	if *faultRate > 0 {
		fmt.Fprintf(stderr, "iltserver: chaos injection enabled (rate %g, seed %d) — reproduce with -fault-rate %g -fault-seed %d\n",
			*faultRate, *faultSeed, *faultRate, *faultSeed)
	}
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(stderr, "iltserver: shutting down, draining jobs...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(stderr, "iltserver: http shutdown:", err)
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(stderr, "iltserver: drain budget exceeded, jobs cancelled:", err)
	}
	fmt.Fprintln(stderr, "iltserver: bye")
	return nil
}
