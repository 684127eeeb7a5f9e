package core

import (
	"testing"

	"mgsilt/internal/cache"
	"mgsilt/internal/device"
	"mgsilt/internal/grid"
	"mgsilt/internal/layout"
	"mgsilt/internal/litho"
	"mgsilt/internal/sched"
	"mgsilt/internal/tile"
)

func repeatTarget(t testing.TB) *layout.Clip {
	t.Helper()
	clip, err := layout.GenerateRepeat(layout.RepeatConfig{Size: testClip, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return clip
}

func newTileCache(t testing.TB) *cache.Cache {
	t.Helper()
	tc, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

// dropoutConfig is the calibrated dropout geometry: a long fine
// schedule with no refine tail, so stage-over-stage tile movement
// actually falls under DropTol and tiles retire mid-run.
func dropoutConfig(t testing.TB, sim *litho.Simulator) Config {
	t.Helper()
	cfg := testConfig(t, sim, 8)
	cfg.FineStages = 4
	cfg.FineIters = 16
	cfg.RefineIters = 0
	cfg.DropTol = 0.1
	return cfg
}

// cascadeJobs is the device-job count of the Algorithm 1 coarse
// cascade: one uncached solve per coarse tile per level.
func cascadeJobs(cfg Config) int {
	jobs := 0
	for s := cfg.CoarseScale; s >= 2; s /= 2 {
		jobs += len(tile.MustPart(cfg.ClipSize, cfg.ClipSize, s*cfg.TileSize, s*cfg.Margin).Tiles)
	}
	return jobs
}

// coarseCorrectConfig is the two-level row's geometry: a 256² clip, so
// that every flow-side section fans out at pool width 2 under
// parallel.SweepLimit — the smallest, CoarseClean's and the stitch
// loss's whole-clip filters, is 256² = 2·SweepGrain elements — and three
// fine stages, so the coarse-correct grid serves two corrections.
func coarseCorrectConfig(t testing.TB, sim *litho.Simulator) Config {
	t.Helper()
	cfg := DefaultConfig(sim, 2*testClip, 8)
	cfg.CoarseCorrect = true
	cfg.FineStages = 3
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// correctJobs is the device-job count of the coarse-correct stages: one
// uncached solve per correction-grid tile per stage.
func correctJobs(cfg Config) int {
	s := cfg.coarseCorrectScale()
	return (cfg.FineStages - 1) * len(tile.MustPart(cfg.ClipSize, cfg.ClipSize, s*cfg.TileSize, s*cfg.Margin).Tiles)
}

// backendRow is one sweep kind of the in-process backend equivalence
// table: a flow, its configuration and target, and the exact device-job
// count of its warm-cache run.
type backendRow struct {
	cfg      Config
	target   *grid.Mat
	flow     func(Config, *grid.Mat) (*Result, error)
	warmJobs int
}

// backendRows is the table's rows: D&C's single RAS round, the full
// multigrid-Schwarz flow (coarse, fine and refine sweeps), the same
// under dropout's filtered window lists, and stitch-and-heal's window
// sweeps, and the two-level flow with coarse corrections on a clip
// twice as wide. A warm run answers every full-resolution solve from the
// cache, so it dispatches exactly the uncached coarse solves' jobs.
func backendRows(t testing.TB) map[string]backendRow {
	t.Helper()
	sim := testSim(t)
	cells := repeatTarget(t).Target
	plain, dropout, twoLevel := testConfig(t, sim, 8), dropoutConfig(t, sim), coarseCorrectConfig(t, sim)
	wide, err := layout.GenerateRepeat(layout.RepeatConfig{Size: twoLevel.ClipSize, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]backendRow{
		"dc":          {plain, cells, DivideAndConquer, 0},
		"mgs":         {plain, cells, MultigridSchwarz, cascadeJobs(plain)},
		"mgs-dropout": {dropout, testClipTarget(t, 21), MultigridSchwarz, cascadeJobs(dropout)},
		"heal":        {plain, cells, StitchAndHeal, 0},
		"mgs-coarse":  {twoLevel, wide.Target, MultigridSchwarz, cascadeJobs(twoLevel) + correctJobs(twoLevel)},
	}
}

// run solves the row on a fresh two-device cluster with the given
// cache and batcher, either of which may be nil.
func (row backendRow) run(t *testing.T, tc *cache.Cache, b *sched.Batcher) (*Result, device.Stats) {
	t.Helper()
	cfg := row.cfg
	cl, err := device.NewCluster(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cluster, cfg.TileCache, cfg.Batch = cl, tc, b
	res, err := row.flow(cfg, row.target)
	if err != nil {
		t.Fatal(err)
	}
	return res, cl.Stats()
}

// baseline is the uncached, unbatched run every column must reproduce.
// A dropout row must actually retire tiles, or its counters prove nothing.
func (row backendRow) baseline(t *testing.T) *Result {
	t.Helper()
	res, _ := row.run(t, nil, nil)
	if row.cfg.DropTol > 0 && (res.TilesConverged == 0 || res.TileSolvesSkipped == 0) {
		t.Fatalf("run did no dropout work: %d converged, %d skipped",
			res.TilesConverged, res.TileSolvesSkipped)
	}
	return res
}

// requireSameResult fails unless a backend column reproduced the
// uncached run bit for bit. Dropout decisions are a pure function of
// the solved tiles, so its counters must match too.
func requireSameResult(t *testing.T, col string, r, baseline *Result) {
	t.Helper()
	if !r.Mask.Equal(baseline.Mask) {
		t.Fatalf("%s mask differs from the uncached run", col)
	}
	if r.L2 != baseline.L2 || r.PVBand != baseline.PVBand {
		t.Fatalf("%s L2/PVBand %v/%v != %v/%v", col, r.L2, r.PVBand, baseline.L2, baseline.PVBand)
	}
	if r.TilesConverged != baseline.TilesConverged || r.TileSolvesSkipped != baseline.TileSolvesSkipped {
		t.Fatalf("%s dropout stats %d/%d differ from uncached %d/%d", col,
			r.TilesConverged, r.TileSolvesSkipped, baseline.TilesConverged, baseline.TileSolvesSkipped)
	}
}

// checkCacheColumns runs the row cold and then warm on one shared cache.
// Both must equal the uncached run; the warm run must hit on every
// lookup, dispatch exactly the row's warm job count and finish with a
// strictly smaller TAT.
func checkCacheColumns(t *testing.T, row backendRow) {
	baseline := row.baseline(t)
	shared := newTileCache(t)
	cold, _ := row.run(t, shared, nil)
	warmBase := shared.Stats()
	warm, warmStats := row.run(t, shared, nil)
	delta := shared.Stats().Sub(warmBase)

	requireSameResult(t, "cold", cold, baseline)
	requireSameResult(t, "warm", warm, baseline)
	if delta.Misses != 0 {
		t.Fatalf("warm run missed %d times", delta.Misses)
	}
	if rate := delta.HitRate(); rate != 1 {
		t.Fatalf("warm hit rate %.2f, want 1.0", rate)
	}
	if warmStats.Jobs != row.warmJobs {
		t.Fatalf("warm run dispatched %d device jobs, want the %d uncached coarse solves", warmStats.Jobs, row.warmJobs)
	}
	if warm.TAT >= cold.TAT {
		t.Fatalf("warm TAT %v not below cold %v", warm.TAT, cold.TAT)
	}
}

// checkBatcherColumn routes the row's solves through the lockstep
// batcher: not a bit or a counter may move, and the batcher must have
// seen the requests.
func checkBatcherColumn(t *testing.T, row backendRow) {
	baseline := row.baseline(t)
	b := sched.New(sched.Options{BatchSize: 4})
	batched, _ := row.run(t, nil, b)
	requireSameResult(t, "batched", batched, baseline)
	if st := b.Stats(); st.Requests == 0 {
		t.Fatalf("batcher saw no requests — scheduler not wired into the flow")
	}
}

// The cache columns of the equivalence table, for every sweep kind
// without dropout.
func TestCacheColdWarmBitIdentical(t *testing.T) {
	rows := backendRows(t)
	for _, name := range []string{"dc", "mgs", "heal", "mgs-coarse"} {
		t.Run(name, func(t *testing.T) { checkCacheColumns(t, rows[name]) })
	}
}

// The cache columns of the dropout row: a warm cache replays the
// solved tiles, so it must also replay the dropout accounting.
func TestDropoutWarmCacheKeepsStats(t *testing.T) {
	checkCacheColumns(t, backendRows(t)["mgs-dropout"])
}

// The batcher column of the equivalence table, for every sweep kind
// without dropout.
func TestBatcherBitIdentical(t *testing.T) {
	rows := backendRows(t)
	for _, name := range []string{"dc", "mgs", "heal", "mgs-coarse"} {
		t.Run(name, func(t *testing.T) { checkBatcherColumn(t, rows[name]) })
	}
}

// The batcher column of the dropout row: dropout shrinks the batches,
// it does not change their contents.
func TestDropoutBatcherBitIdentical(t *testing.T) {
	checkBatcherColumn(t, backendRows(t)["mgs-dropout"])
}

// On a repeated-cell layout the cold run itself already deduplicates:
// identical tiles solve once (singleflight Merged) and the cache holds
// only the distinct patterns.
func TestCacheDedupsRepeatedCellsWithinOneRun(t *testing.T) {
	sim := testSim(t)
	clip := repeatTarget(t)
	tc := newTileCache(t)

	cfg := testConfig(t, sim, 8)
	cl, err := device.NewCluster(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cluster = cl
	cfg.TileCache = tc
	if _, err := DivideAndConquer(cfg, clip.Target); err != nil {
		t.Fatal(err)
	}

	st := tc.Stats()
	// 3×3 tile grid, cell pitch dividing the tile step, 3-cell library:
	// 9 lookups, at most 3 distinct patterns survive as entries.
	if st.Misses != 9 {
		t.Fatalf("misses = %d, want 9 (one per tile)", st.Misses)
	}
	if st.Entries >= 9 || st.Entries < 1 {
		t.Fatalf("entries = %d, want the distinct-pattern count (< 9)", st.Entries)
	}
	if st.Merged != uint64(9-st.Entries) {
		t.Fatalf("merged = %d with %d entries, want %d duplicate solves avoided",
			st.Merged, st.Entries, 9-st.Entries)
	}
}
