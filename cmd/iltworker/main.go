// Command iltworker runs one shard worker: an HTTP service that
// solves the tile shards a coordinator (internal/shard, installed via
// iltrun -shard-workers or iltserver -shard-workers) assigns to it,
// on a local simulated accelerator cluster, and exchanges only the
// overlap-halo strips between Schwarz stages.
//
// Quickstart (see README.md "Distributed sharding"):
//
//	go run ./cmd/iltworker -addr :9301 &
//	go run ./cmd/iltworker -addr :9302 &
//	go run ./cmd/iltrun -method ours -n 64 \
//	    -shard-workers http://127.0.0.1:9301,http://127.0.0.1:9302
//
// The distributed result is byte-identical to the in-process run at
// any worker count: workers execute only deterministic pure tile
// solves, and the coordinator performs all mask assembly itself in
// tile-index order.
//
// SIGINT/SIGTERM trigger a graceful shutdown. The -fail-after-solves
// flag is a deterministic chaos hook for the CI kill-and-reassign
// case: the worker serves that many solve batches, then fails every
// further one with a 500 so the coordinator quarantines it and
// reassigns its shard.
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
	"syscall"
	"time"

	"mgsilt/internal/parallel"
	"mgsilt/internal/shard"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stderr)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "iltworker:", err)
		os.Exit(1)
	}
}

// run parses args and serves solve requests until ctx is cancelled.
// Log lines go to stderr.
func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("iltworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":9301", "listen address")
		devices   = fs.Int("devices", 1, "simulated devices in the worker cluster")
		compute   = fs.Int("compute-workers", 0, "process-wide compute pool width: a device solves ⌊width/devices⌋ tiles side by side, and a lone tile fans its FFTs and convolutions out (0 = ILT_WORKERS env or GOMAXPROCS)")
		maxBodyMB = fs.Int64("max-body-mb", 64, "largest accepted solve request body in MiB")
		sessions  = fs.Int("max-sessions", 8, "cached coordinator sessions before LRU eviction")
		failAfter = fs.Int("fail-after-solves", 0, "chaos: serve this many solve batches then fail every further one with a 500 (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compute > 0 {
		parallel.SetWorkers(*compute)
	}

	w, err := shard.NewWorker(shard.WorkerOptions{
		Devices:         *devices,
		MaxBodyBytes:    *maxBodyMB << 20,
		MaxSessions:     *sessions,
		FailAfterSolves: *failAfter,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}

	httpSrv := &http.Server{
		Handler:           w.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	fmt.Fprintf(stderr, "iltworker: listening on %s (%d devices)\n", ln.Addr(), *devices)
	if *failAfter > 0 {
		fmt.Fprintf(stderr, "iltworker: chaos enabled — failing after %d solve batches\n", *failAfter)
	}
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	fmt.Fprintln(stderr, "iltworker: shutting down...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(stderr, "iltworker: http shutdown:", err)
	}
	fmt.Fprintln(stderr, "iltworker: bye")
	return nil
}
