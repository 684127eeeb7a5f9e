package service

import (
	"bytes"
	"flag"
	"os"
	"testing"
	"time"

	"mgsilt/internal/cache"
	"mgsilt/internal/device"
	"mgsilt/internal/promtext"
	"mgsilt/internal/sched"
	"mgsilt/internal/shard"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestMetricsGolden pins the iltserver /metrics body for a fixed counter
// state, every optional section present, to the bytes recorded on the
// commit before the shared text writer (PR 14), and lints the format.
func TestMetricsGolden(t *testing.T) {
	r := newRegistry()
	r.submitted()
	r.submitted()
	r.submitted()
	r.resumed()
	r.recovered(2)
	r.finished(StateDone)
	r.finished(StateDone)
	r.finished(StateCancelled)
	r.twoLevel(7, 3)
	r.observeStage("fine", 40*time.Millisecond)
	r.observeStage("fine", 3*time.Second)
	r.observeStage("fine", 400*time.Second) // beyond the last bound: +Inf only
	r.observeStage("coarse", 1500*time.Microsecond)
	snap := snapshot{
		queued: 2, running: 1, queueDepth: 2, workers: 4, computeWorkers: 8,
		uptime: 90500 * time.Millisecond,
		device: device.Stats{
			Jobs: 1234567, TotalBusy: 12345678 * time.Microsecond, Transfer: 250 * time.Millisecond,
			SimElapsed: 7 * time.Second, Retries: 5, Quarantined: 1,
		},
		cache:        &cache.Stats{Hits: 40, DiskHits: 2, Misses: 9, Merged: 3, Evictions: 1, Bytes: 3 << 20, Entries: 11},
		sched:        &sched.Stats{Requests: 30, Batches: 9, Batched: 27, MaxBatch: 4},
		shard:        &shard.Stats{Batches: 6, Rounds: 7, Tiles: 54, HaloBytes: 123456789, FullBytes: 2345678, ReassignedTiles: 4, RequestRetries: 2, WorkersQuarantined: 1},
		shardWorkers: 2, kernelsEvaluated: 5928,
	}
	var buf bytes.Buffer
	r.write(&buf, snap)

	const golden = "testdata/metrics.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("/metrics body differs from %s:\n%s", golden, buf.Bytes())
	}
	if err := promtext.Lint(buf.Bytes()); err != nil {
		t.Error(err)
	}
}
