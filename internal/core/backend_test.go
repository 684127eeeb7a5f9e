package core

import (
	"context"
	"fmt"
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

// statsBackend is a TileBackend that also reports remote accounting,
// standing in for the shard coordinator.
type statsBackend struct {
	sim   time.Duration
	stats device.Stats
}

func (b *statsBackend) SolveTiles(ctx context.Context, reqs []TileRequest) ([]*grid.Mat, error) {
	out := make([]*grid.Mat, len(reqs))
	for i := range reqs {
		out[i] = grid.NewMat(1, 1)
	}
	return out, nil
}

func (b *statsBackend) SimElapsed() time.Duration  { return b.sim }
func (b *statsBackend) ClusterStats() device.Stats { return b.stats }

func TestBackendStatsMerge(t *testing.T) {
	cl, err := device.NewCluster(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	remote := &statsBackend{
		sim: 3 * time.Second,
		stats: device.Stats{
			Jobs:        7,
			TotalBusy:   5 * time.Second,
			MaxBusy:     2 * time.Second,
			Transfer:    time.Second,
			SimElapsed:  3 * time.Second,
			Retries:     2,
			Quarantined: 1,
		},
	}
	cfg := Config{Tiles: remote}

	if got := cfg.backend(cl); got != remote {
		t.Fatalf("backend() = %T, want the configured remote backend", got)
	}
	if got := cfg.simElapsed(cl); got != cl.Stats().SimElapsed+3*time.Second {
		t.Fatalf("simElapsed = %v, want local + 3s", got)
	}
	s := cfg.runStats(cl)
	if s.Jobs != cl.Stats().Jobs+7 || s.Retries != 2 || s.Quarantined != 1 {
		t.Fatalf("runStats did not merge remote accounting: %+v", s)
	}
	if s.Transfer != cl.Stats().Transfer+time.Second {
		t.Fatalf("runStats transfer = %v", s.Transfer)
	}
	if s.MaxBusy != 2*time.Second {
		t.Fatalf("runStats MaxBusy = %v, want remote max 2s", s.MaxBusy)
	}

	// Without a backend the local cluster numbers pass through and the
	// default in-process backend is returned.
	plain := Config{}
	if _, ok := plain.backend(cl).(*Local); !ok {
		t.Fatalf("default backend is %T, want *Local", plain.backend(cl))
	}
	if got := plain.simElapsed(cl); got != cl.Stats().SimElapsed {
		t.Fatalf("simElapsed without backend = %v", got)
	}
	if got := plain.runStats(cl); got != cl.Stats() {
		t.Fatalf("runStats without backend = %+v", got)
	}
}

// cellTile is the p-th of a family of distinct testN² tile patterns.
func cellTile(p int) *grid.Mat {
	m := grid.NewMat(testN, testN)
	for y := 8; y < 24; y++ {
		for x := 4 + 6*p; x < 12+6*p; x++ {
			m.Set(y, x, 1)
		}
	}
	return m
}

// cellReq is a solve of pattern p as tile index i.
func cellReq(i, p, iters int, bare bool) TileRequest {
	return TileRequest{
		Index: i, Pixels: testN * testN,
		Target: cellTile(p), Init: cellTile(p).Scale(0.5),
		Params: opt.Params{Iters: iters, LR: 0.4, Stretch: 1},
		Bare:   bare,
	}
}

// cellRound is a repeat-cells round: class A (2 iterations) repeats five
// patterns over nine tiles, class B (3 iterations) two patterns over
// three, and two Bare coarse solves close it.
func cellRound() []TileRequest {
	var reqs []TileRequest
	add := func(p, iters int, bare bool) {
		reqs = append(reqs, cellReq(len(reqs), p, iters, bare))
	}
	for _, p := range []int{0, 1, 0, 2, 3, 1, 4, 0, 2} {
		add(p, 2, false)
	}
	for _, p := range []int{5, 6, 5} {
		add(p, 3, false)
	}
	add(0, 2, true)
	add(7, 2, true)
	return reqs
}

// solveRound runs one round through the in-process backend of cfg on a
// fresh cluster and returns the solutions and the cluster's accounting.
func solveRound(t *testing.T, cfg Config, devices, memPixels int, reqs []TileRequest) ([]*grid.Mat, device.Stats) {
	t.Helper()
	cl, err := device.NewCluster(devices, memPixels)
	if err != nil {
		t.Fatal(err)
	}
	sols, err := cfg.backend(cl).SolveTiles(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	return sols, cl.Stats()
}

// A round forms its device jobs at the source: each Bare request is a
// job, the distinct misses of each lockstep class are cut into runs of
// at most BatchSize, one job each, and a repeated cell never becomes a
// job of its own — it takes the one solve's result. Every solution is
// bit-identical to a direct solve. The counts are those of one lane per
// device, so the pool is pinned to width 1; TestLanesBitIdentical
// counts packed jobs.
func TestRoundDispatchesDistinctMissesInBatches(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	parallel.SetWorkers(1)
	sim := testSim(t)
	reqs := cellRound()
	direct, directStats := solveRound(t, testConfig(t, sim, 8), 2, 0, reqs)
	if directStats.Jobs != len(reqs) {
		t.Fatalf("direct round ran %d jobs, want one per request (%d)", directStats.Jobs, len(reqs))
	}

	cfg := testConfig(t, sim, 8)
	cfg.TileCache = newTileCache(t)
	cfg.Batch = sched.New(sched.Options{BatchSize: 4})
	sols, stats := solveRound(t, cfg, 2, 0, reqs)
	for i := range reqs {
		if !sols[i].Equal(direct[i]) {
			t.Fatalf("tile %d differs from its direct solve", i)
		}
	}
	// Class A: 5 distinct misses → runs of 4 + 1; class B: 2 → one run.
	const bare, distinct = 2, 7
	if want := bare + 2 + 1; stats.Jobs != want {
		t.Fatalf("round ran %d device jobs, want %d", stats.Jobs, want)
	}
	if st := cfg.Batch.Stats(); st.Requests != distinct || st.Batches != 3 || st.MaxBatch > 4 {
		t.Fatalf("batch stats %+v, want %d requests in 3 batches of at most 4", st, distinct)
	}
	cs := cfg.TileCache.Stats()
	if lookups := uint64(len(reqs) - bare); cs.Misses != lookups || cs.Merged != lookups-distinct || cs.Entries != distinct {
		t.Fatalf("cache stats %+v, want %d misses, %d merged, %d entries", cs, lookups, lookups-distinct, distinct)
	}

	// Warm: every lookup hits, and only the Bare requests run.
	warm, warmStats := solveRound(t, cfg, 2, 0, reqs)
	for i := range reqs {
		if !warm[i].Equal(direct[i]) {
			t.Fatalf("warm tile %d differs from its direct solve", i)
		}
	}
	if warmStats.Jobs != bare {
		t.Fatalf("warm round ran %d device jobs, want the %d Bare ones", warmStats.Jobs, bare)
	}
}

// A run is cut further so its summed working set fits device memory.
func TestRoundBatchFitsDeviceMemory(t *testing.T) {
	sim := testSim(t)
	var reqs []TileRequest
	for p := 0; p < 4; p++ {
		reqs = append(reqs, cellReq(p, p, 2, false))
	}
	cfg := testConfig(t, sim, 8)
	cfg.Batch = sched.New(sched.Options{BatchSize: 4})
	_, stats := solveRound(t, cfg, 1, 2*testN*testN, reqs)
	if stats.Jobs != 2 {
		t.Fatalf("4 tiles on a 2-tile device ran %d jobs, want 2", stats.Jobs)
	}
	if st := cfg.Batch.Stats(); st.Batches != 2 || st.MaxBatch != 2 {
		t.Fatalf("batch stats %+v, want 2 batches of 2", st)
	}
}

// Two flows sharing one cache and batcher solve each key once between
// them: a key one run is solving is waited for by the other, never
// dispatched twice, and both masks equal a lone run's.
func TestConcurrentRunsSolveEachKeyOnce(t *testing.T) {
	sim := testSim(t)
	clip := repeatTarget(t)
	run := func(tc *cache.Cache, b *sched.Batcher) (*Result, error) {
		cfg := testConfig(t, sim, 8)
		cl, err := device.NewCluster(2, 0)
		if err != nil {
			return nil, err
		}
		cfg.Cluster, cfg.TileCache, cfg.Batch = cl, tc, b
		return MultigridSchwarz(cfg, clip.Target)
	}
	lone := newTileCache(t)
	want, err := run(lone, nil)
	if err != nil {
		t.Fatal(err)
	}
	distinct := lone.Stats().Entries

	shared, b := newTileCache(t), sched.New(sched.Options{BatchSize: 4})
	var wg sync.WaitGroup
	res := make([]*Result, 2)
	errs := make([]error, 2)
	for i := range res {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i], errs[i] = run(shared, b)
		}(i)
	}
	wg.Wait()
	for i := range res {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !res[i].Mask.Equal(want.Mask) {
			t.Fatalf("concurrent run %d differs from a lone run", i)
		}
	}
	st := shared.Stats()
	if st.Entries != distinct || st.Merged != st.Misses-uint64(distinct) {
		t.Fatalf("cache stats %+v, want %d entries and misses − entries merged", st, distinct)
	}
	if solved := b.Stats().Requests; solved != uint64(distinct) {
		t.Fatalf("%d solves for %d distinct keys", solved, distinct)
	}
}

// TestLanesBitIdentical: on a one-device cluster the pool width becomes
// lanes, each device job carrying up to width runs side by side. The
// MGS, D&C and heal flows must produce width 1's masks bit for bit; D&C's
// one 3×3 fine round packs into ⌈9/width⌉ jobs; Bare requests, and runs
// whose sum would not fit the device, are never packed.
func TestLanesBitIdentical(t *testing.T) {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	sim := testSim(t)
	target := testClipTarget(t, 7)
	flows := []struct {
		name string
		flow func(Config, *grid.Mat) (*Result, error)
	}{{"mgs", MultigridSchwarz}, {"dc", DivideAndConquer}, {"heal", StitchAndHeal}}
	run := func(flow func(Config, *grid.Mat) (*Result, error)) *Result {
		cfg := testConfig(t, sim, 4)
		cl, err := device.NewCluster(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Cluster = cl
		res, err := flow(cfg, target)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var round []TileRequest
	for i := 0; i < 9; i++ {
		round = append(round, cellReq(i, i%7, 2, false))
	}
	bare := make([]TileRequest, len(round))
	for i, req := range round {
		req.Bare = true
		bare[i] = req
	}

	parallel.SetWorkers(1)
	want := make([]*Result, len(flows))
	for f, fl := range flows {
		want[f] = run(fl.flow)
	}
	if jobs := want[1].Stats.Jobs; jobs != 9 {
		t.Fatalf("D&C ran %d device jobs at width 1, want its 9 windows", jobs)
	}
	direct, _ := solveRound(t, testConfig(t, sim, 8), 1, 0, round)

	for _, width := range []int{2, 4} {
		parallel.SetWorkers(width)
		packed := map[int]int{2: 5, 4: 3}[width] // ⌈9/width⌉
		for f, fl := range flows {
			got := run(fl.flow)
			requireSameResult(t, fmt.Sprintf("width %d %s", width, fl.name), got, want[f])
			if got.StitchLoss != want[f].StitchLoss {
				t.Fatalf("width %d %s: stitch loss %v, width 1 %v", width, fl.name, got.StitchLoss, want[f].StitchLoss)
			}
			if fl.name == "dc" && got.Stats.Jobs != packed {
				t.Fatalf("width %d: D&C's 3×3 round ran %d device jobs, want %d", width, got.Stats.Jobs, packed)
			}
		}
		for _, tc := range []struct {
			name      string
			reqs      []TileRequest
			memPixels int
			jobs      int
		}{
			{"packed", round, 0, packed},
			{"bare", bare, 0, len(bare)},
			{"one-tile device", round, testN * testN, len(round)},
		} {
			sols, stats := solveRound(t, testConfig(t, sim, 8), 1, tc.memPixels, tc.reqs)
			if stats.Jobs != tc.jobs {
				t.Fatalf("width %d %s: %d device jobs, want %d", width, tc.name, stats.Jobs, tc.jobs)
			}
			for i := range sols {
				if !sols[i].Equal(direct[i]) {
					t.Fatalf("width %d %s: tile %d differs from width 1's", width, tc.name, i)
				}
			}
		}
	}
}
