package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"sync"
	"testing"
	"time"

	"mgsilt/internal/cache"
	"mgsilt/internal/device"
	"mgsilt/internal/grid"
	"mgsilt/internal/opt"
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
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	parallel.SetWorkers(2) // narrower than the 4-device cluster

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

// countingSolver is the default pixel solver counting how often it is
// entered for each tile: one Solve call, or one member of a SolveBatch,
// keyed by an FNV-64 hash of the tile's target, start and iteration
// count. Embedding *opt.Pixel keeps its Fingerprint, so the tile cache
// and the batcher take it like the plain solver.
type countingSolver struct {
	*opt.Pixel
	mu      sync.Mutex
	entered map[uint64]int
}

func (s *countingSolver) count(target, init *grid.Mat, p opt.Params) {
	h := fnv.New64a()
	var b [8]byte
	for _, m := range []*grid.Mat{target, init} {
		for _, v := range m.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	binary.LittleEndian.PutUint64(b[:], uint64(p.Iters))
	h.Write(b[:])
	s.mu.Lock()
	s.entered[h.Sum64()]++
	s.mu.Unlock()
}

func (s *countingSolver) Solve(target, init *grid.Mat, p opt.Params) (*grid.Mat, error) {
	s.count(target, init, p)
	return s.Pixel.Solve(target, init, p)
}

func (s *countingSolver) SolveBatch(targets, inits []*grid.Mat, ps []opt.Params) ([]*grid.Mat, []error) {
	for j := range targets {
		s.count(targets[j], inits[j], ps[j])
	}
	return s.Pixel.SolveBatch(targets, inits, ps)
}

// tableRuns is what one pass over a backend row's columns leaves behind:
// the uncached, cold-cached, warm-cached and batched results, the
// counters each column moved, and how often the solver was entered for
// each tile over all four.
type tableRuns struct {
	plain, cold, warm, batched *Result
	coldCache, warmCache       cache.Stats
	coldJobs, warmJobs         int
	batch                      sched.Stats
	entered                    map[uint64]int
}

func (row backendRow) columns(t *testing.T) tableRuns {
	t.Helper()
	var r tableRuns
	solver := &countingSolver{Pixel: opt.NewPixel(row.cfg.Sim), entered: map[uint64]int{}}
	row.cfg.Solver = solver
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
	r.entered = solver.entered
	return r
}

// TestBackendRowsPoolWidth is the pool-width column of the equivalence
// table: every row, uncached, cold and warm cached and batched, at pool
// widths 1, 2 and 4. The flow side between device rounds — crops,
// restrictions, lifts, cache keys, assembly, the FAS base, the filters —
// fans out over the pool, so not a mask bit, quality number, cache,
// batch or dropout counter may differ from width 1, and the solver is
// entered for the same tiles the same number of times. The device jobs
// follow the lanes: the rows' two devices get one lane each at widths 1
// and 2, so their jobs are width 1's; at width 4 they get two, so the
// cold columns pack into strictly fewer jobs, while the warm column's
// jobs, Bare coarse solves that never pack, stay width 1's. The
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
				if !maps.Equal(got.entered, want.entered) {
					t.Fatalf("width %d: the solver was entered for %d distinct tiles, width 1 for %d, or as often differently",
						width, len(got.entered), len(want.entered))
				}
				lanes := width / 2 // the rows' clusters have two devices
				if lanes == 1 && got.coldJobs != want.coldJobs {
					t.Fatalf("width %d: one lane per device, but device jobs cold %d, width 1 %d", width, got.coldJobs, want.coldJobs)
				}
				if lanes > 1 && got.coldJobs >= want.coldJobs {
					t.Fatalf("width %d: %d lanes per device, but device jobs cold %d, width 1 %d", width, lanes, got.coldJobs, want.coldJobs)
				}
				if got.warmJobs != want.warmJobs {
					t.Fatalf("width %d: device jobs warm %d, width 1 %d", width, got.warmJobs, want.warmJobs)
				}
				if got.batch != want.batch {
					t.Fatalf("width %d: batcher %+v, width 1 %+v", width, got.batch, want.batch)
				}
			}
		})
	}
}
