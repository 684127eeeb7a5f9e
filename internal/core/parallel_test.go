package core

import (
	"fmt"
	"testing"
	"time"

	"mgsilt/internal/cache"
	"mgsilt/internal/device"
	"mgsilt/internal/parallel"
	"mgsilt/internal/sched"
)

// TestNestedParallelismNoStarvation drives both parallelism levels at
// once — cluster-level tile dispatch (4 devices) above kernel-level
// convolution fan-out — with a pool narrower than the tile count. The
// pool claims its helpers without blocking and the caller always
// participates, so this must complete rather than deadlock, and must
// still match the serial result bit-for-bit.
func TestNestedParallelismNoStarvation(t *testing.T) {
	prev := parallel.SetWorkers(2) // narrower than the 4-device cluster
	defer parallel.SetWorkers(prev)

	sim := testSim(t)
	target := testClipTarget(t, 11)

	serialCfg := testConfig(t, sim, 3)
	serial, err := MultigridSchwarz(serialCfg, target)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan *Result, 1)
	errc := make(chan error, 1)
	go func() {
		cfg := testConfig(t, sim, 3)
		cl, err := device.NewCluster(4, 0)
		if err != nil {
			errc <- err
			return
		}
		cfg.Cluster = cl
		res, err := MultigridSchwarz(cfg, target)
		if err != nil {
			errc <- err
			return
		}
		done <- res
	}()

	select {
	case res := <-done:
		if !res.Mask.Equal(serial.Mask) {
			t.Fatal("nested parallel run diverged from serial result")
		}
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(60 * time.Second):
		t.Fatal("nested tile-level × kernel-level parallelism starved the pool")
	}
}

// tableRuns is what one pass over a backend row's columns leaves behind:
// the uncached, cold-cached, warm-cached and batched results, and the
// counters each column moved.
type tableRuns struct {
	plain, cold, warm, batched *Result
	coldCache, warmCache       cache.Stats
	coldJobs, warmJobs         int
	batch                      sched.Stats
}

func (row backendRow) columns(t *testing.T) tableRuns {
	t.Helper()
	var r tableRuns
	r.plain = row.baseline(t)
	shared := newTileCache(t)
	var cs device.Stats
	r.cold, cs = row.run(t, shared, nil)
	r.coldCache, r.coldJobs = shared.Stats(), cs.Jobs
	r.warm, cs = row.run(t, shared, nil)
	r.warmCache, r.warmJobs = shared.Stats().Sub(r.coldCache), cs.Jobs
	b := sched.New(sched.Options{BatchSize: 4})
	r.batched, _ = row.run(t, nil, b)
	r.batch = b.Stats()
	return r
}

// TestBackendRowsPoolWidth is the pool-width column of the equivalence
// table: every row, uncached, cold and warm cached and batched, at pool
// widths 1, 2 and 4. The flow side between device rounds — crops,
// restrictions, lifts, cache keys, assembly, the FAS base, the filters —
// fans out over the pool, so not a mask bit, quality number, cache,
// batch, device-job or dropout counter may differ from width 1. The
// mgs-coarse row's clip is wide enough that every one of those sections
// fans out at width 2.
func TestBackendRowsPoolWidth(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	rows := backendRows(t)
	for _, name := range []string{"dc", "mgs", "mgs-dropout", "heal", "mgs-coarse"} {
		t.Run(name, func(t *testing.T) {
			row := rows[name]
			parallel.SetWorkers(1)
			want := row.columns(t)
			for _, width := range []int{2, 4} {
				parallel.SetWorkers(width)
				if name == "mgs-coarse" && parallel.SweepLimit(row.cfg.ClipSize*row.cfg.ClipSize) < 2 {
					t.Fatalf("width %d: the row's whole-clip sections stay on the caller", width)
				}
				got := row.columns(t)
				col := func(c string) string { return fmt.Sprintf("width %d %s", width, c) }
				requireSameResult(t, col("uncached"), got.plain, want.plain)
				requireSameResult(t, col("cold"), got.cold, want.cold)
				requireSameResult(t, col("warm"), got.warm, want.warm)
				requireSameResult(t, col("batched"), got.batched, want.batched)
				if got.coldCache != want.coldCache || got.warmCache != want.warmCache {
					t.Fatalf("width %d: cache counters cold %+v warm %+v, width 1 %+v / %+v",
						width, got.coldCache, got.warmCache, want.coldCache, want.warmCache)
				}
				if got.coldJobs != want.coldJobs || got.warmJobs != want.warmJobs {
					t.Fatalf("width %d: device jobs cold %d warm %d, width 1 %d / %d",
						width, got.coldJobs, got.warmJobs, want.coldJobs, want.warmJobs)
				}
				if got.batch != want.batch {
					t.Fatalf("width %d: batcher %+v, width 1 %+v", width, got.batch, want.batch)
				}
			}
		})
	}
}
