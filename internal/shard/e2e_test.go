package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mgsilt/internal/core"
	"mgsilt/internal/fault"
	"mgsilt/internal/grid"
	"mgsilt/internal/kernels"
	"mgsilt/internal/layout"
	"mgsilt/internal/litho"
	"mgsilt/internal/opt"
)

// The e2e suite runs real flows end to end, so it uses the smallest
// geometry the core config supports: a 32-pixel simulator on a 64-pixel
// clip (3×3 overlapping tiles).
const (
	e2eN    = 32
	e2eClip = 64
)

var (
	e2eSimOnce sync.Once
	e2eSimVal  *litho.Simulator
	e2eSimErr  error
)

// e2eSim builds (once) the same optics the shard worker builds for
// n=32 requests, so direct solves are comparable with worker solves.
func e2eSim(t testing.TB) *litho.Simulator {
	t.Helper()
	e2eSimOnce.Do(func() {
		kc := kernels.DefaultConfig(e2eN)
		nom, err := kernels.Generate(kc)
		if err != nil {
			e2eSimErr = err
			return
		}
		def, err := kernels.Defocused(kc, 0.8)
		if err != nil {
			e2eSimErr = err
			return
		}
		e2eSimVal, e2eSimErr = litho.New(nom, def, litho.DefaultConfig())
	})
	if e2eSimErr != nil {
		t.Fatal(e2eSimErr)
	}
	return e2eSimVal
}

func e2eTarget(t testing.TB) *grid.Mat {
	t.Helper()
	clip, err := layout.Generate(layout.DefaultConfig(e2eClip, 7))
	if err != nil {
		t.Fatal(err)
	}
	return clip.Target
}

// startWorkers launches n shard workers behind httptest servers.
func startWorkers(t *testing.T, n int, opts WorkerOptions) ([]string, []*Worker) {
	t.Helper()
	urls := make([]string, n)
	workers := make([]*Worker, n)
	for i := 0; i < n; i++ {
		w, err := NewWorker(opts)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
		workers[i] = w
	}
	return urls, workers
}

// fastRetry keeps quarantine decisions quick under test.
func fastRetry() *fault.Retry {
	return &fault.Retry{MaxAttempts: 3, BaseDelay: time.Millisecond, Retryable: RetryableRequestError}
}

// TestShardEquivalenceAcrossCounts is the in-test mirror of the CI
// shard-equivalence matrix: a MultigridSchwarz run sharded over 1, 2
// and 4 workers must be bit-identical to the in-process run, with real
// halo traffic and no reassignment.
func TestShardEquivalenceAcrossCounts(t *testing.T) {
	sim := e2eSim(t)
	target := e2eTarget(t)
	ref, err := core.MultigridSchwarz(core.DefaultConfig(sim, e2eClip, 4), target)
	if err != nil {
		t.Fatal(err)
	}

	for _, count := range []int{1, 2, 4} {
		count := count
		t.Run(fmt.Sprintf("%d-workers", count), func(t *testing.T) {
			urls, workers := startWorkers(t, count, WorkerOptions{})
			coord, err := NewCoordinator(Config{
				Workers: urls, N: e2eN, Solver: "pixel",
				RunID: fmt.Sprintf("eq%d", count), Retry: fastRetry(),
			})
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.DefaultConfig(sim, e2eClip, 4)
			cfg.Tiles = coord
			res, err := core.MultigridSchwarz(cfg, target)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, ref.Mask, res.Mask, "sharded mask")

			st := coord.Stats()
			if st.Batches == 0 || st.Tiles == 0 {
				t.Fatalf("no shard traffic recorded: %+v", st)
			}
			if st.HaloBytes == 0 {
				t.Errorf("no halo exchange happened: %+v", st)
			}
			if st.ReassignedTiles != 0 || st.WorkersQuarantined != 0 {
				t.Errorf("unexpected reassignment on healthy workers: %+v", st)
			}
			if coord.LiveWorkers() != count {
				t.Errorf("live workers %d, want %d", coord.LiveWorkers(), count)
			}
			if res.Stats.Jobs == 0 || coord.SimElapsed() <= 0 {
				t.Errorf("backend accounting missing: jobs %d, sim %v", res.Stats.Jobs, coord.SimElapsed())
			}
			// Work actually landed on every worker when there are fewer
			// workers than tiles per batch.
			if count <= 4 {
				for i, w := range workers {
					w.mu.Lock()
					batches := w.mBatches
					w.mu.Unlock()
					if batches == 0 {
						t.Errorf("worker %d served no batches", i)
					}
				}
			}
		})
	}
}

// TestShardWorkerHTTPSurface covers the worker's observability
// endpoints after real traffic: timeline, metrics, health.
func TestShardWorkerHTTPSurface(t *testing.T) {
	sim := e2eSim(t)
	target := e2eTarget(t)
	urls, _ := startWorkers(t, 1, WorkerOptions{})
	coord, err := NewCoordinator(Config{Workers: urls, N: e2eN, RunID: "obs", Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(sim, e2eClip, 4)
	cfg.Tiles = coord
	if _, err := core.MultigridSchwarz(cfg, target); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(urls[0] + "/v1/shard/timeline")
	if err != nil {
		t.Fatal(err)
	}
	var timeline []BatchRecord
	if err := json.NewDecoder(resp.Body).Decode(&timeline); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(timeline) == 0 {
		t.Fatal("empty stage timeline after a full flow")
	}
	sawHalo := false
	for _, rec := range timeline {
		if rec.Tiles == 0 || rec.N != e2eN {
			t.Fatalf("malformed timeline record: %+v", rec)
		}
		if rec.HaloInits > 0 {
			sawHalo = true
		}
	}
	if !sawHalo {
		t.Error("timeline shows no halo-init batches")
	}

	resp, err = http.Get(urls[0] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	for _, family := range []string{
		"ilt_shard_worker_solve_batches_total",
		"ilt_shard_worker_tiles_total",
		"ilt_shard_worker_halo_init_tiles_total",
		"ilt_shard_worker_sessions",
	} {
		if !strings.Contains(metrics, family) {
			t.Errorf("metrics output missing %s", family)
		}
	}

	resp, err = http.Get(urls[0] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ok, _ := health["ok"].(bool); !ok {
		t.Fatalf("worker unhealthy: %v", health)
	}
}

// TestShardKillAndReassign drives the CI kill case in-process: one of
// two workers dies after its first batch; the run must complete
// bit-identically to the in-process baseline by reassigning the dead
// worker's tiles to the survivor.
func TestShardKillAndReassign(t *testing.T) {
	sim := e2eSim(t)
	target := e2eTarget(t)
	ref, err := core.MultigridSchwarz(core.DefaultConfig(sim, e2eClip, 4), target)
	if err != nil {
		t.Fatal(err)
	}

	healthy, _ := startWorkers(t, 1, WorkerOptions{})
	doomed, _ := startWorkers(t, 1, WorkerOptions{FailAfterSolves: 1})
	coord, err := NewCoordinator(Config{
		Workers: []string{healthy[0], doomed[0]},
		N:       e2eN, RunID: "kill", Retry: fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(sim, e2eClip, 4)
	cfg.Tiles = coord
	res, err := core.MultigridSchwarz(cfg, target)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, ref.Mask, res.Mask, "mask after worker loss")

	st := coord.Stats()
	if st.WorkersQuarantined != 1 {
		t.Fatalf("quarantined %d workers, want 1 (%+v)", st.WorkersQuarantined, st)
	}
	if st.ReassignedTiles == 0 {
		t.Fatalf("no tiles reassigned after worker death: %+v", st)
	}
	if coord.LiveWorkers() != 1 {
		t.Fatalf("live workers %d, want 1", coord.LiveWorkers())
	}
	if st.RequestRetries == 0 {
		t.Errorf("5xx failures should have been retried before quarantine: %+v", st)
	}
}

// TestShardAllWorkersDead asserts the terminal failure mode is a clean
// error, not a hang.
func TestShardAllWorkersDead(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	srv.Close() // the only worker is already gone
	coord, err := NewCoordinator(Config{Workers: []string{srv.URL}, N: e2eN, RunID: "dead", Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	rn := rand.New(rand.NewSource(2))
	reqs := []core.TileRequest{{
		Index: 0, Pixels: e2eN * e2eN,
		Target: randMat(rn, e2eN, e2eN), Init: randMat(rn, e2eN, e2eN),
		Params: opt.Params{Iters: 1, LR: 0.4, Stretch: 1},
	}}
	if _, err := coord.SolveTiles(context.Background(), reqs); err == nil {
		t.Fatal("expected error with every worker dead")
	}
}

// TestStaleSessionFullResend exercises the 409 path: a second
// coordinator evicts the first one's session on a MaxSessions=1
// worker; the first coordinator's next halo-mode request must be
// answered with a conflict, resent in full under a new epoch, and
// still produce the exact solver output.
func TestStaleSessionFullResend(t *testing.T) {
	sim := e2eSim(t)
	urls, _ := startWorkers(t, 1, WorkerOptions{MaxSessions: 1})
	mk := func(id string) *Coordinator {
		c, err := NewCoordinator(Config{Workers: urls, N: e2eN, RunID: id, Retry: fastRetry()})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := mk("coord-a"), mk("coord-b")

	rn := rand.New(rand.NewSource(21))
	target := randMat(rn, e2eN, e2eN)
	init1 := randMat(rn, e2eN, e2eN)
	params := opt.Params{Iters: 1, LR: 0.4, Stretch: 1}
	mkReqs := func(init *grid.Mat) []core.TileRequest {
		return []core.TileRequest{{
			Index: 0, Pixels: e2eN * e2eN,
			Target: target, Init: init, Params: params,
		}}
	}
	ctx := context.Background()

	solA1, err := a.SolveTiles(ctx, mkReqs(init1))
	if err != nil {
		t.Fatal(err)
	}
	pixel := opt.NewPixel(sim)
	want1, err := pixel.Solve(target, init1, params)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, want1, solA1[0], "first sharded solve")

	// Coordinator B's session evicts A's on the MaxSessions=1 worker.
	if _, err := b.SolveTiles(ctx, mkReqs(init1)); err != nil {
		t.Fatal(err)
	}

	init2 := init1.Clone()
	init2.Set(0, 0, 0.123)
	solA2, err := a.SolveTiles(ctx, mkReqs(init2))
	if err != nil {
		t.Fatal(err)
	}
	want2, err := pixel.Solve(target, init2, params)
	if err != nil {
		t.Fatal(err)
	}
	bitsEqual(t, want2, solA2[0], "post-conflict solve")

	if st := a.Stats(); st.RequestRetries == 0 {
		t.Errorf("stale-session conflict did not register a resend: %+v", st)
	}
	if st := a.Stats(); st.WorkersQuarantined != 0 {
		t.Errorf("stale session must not quarantine the worker: %+v", st)
	}
}

// TestCoordinatorValidation covers NewCoordinator's config gate.
func TestCoordinatorValidation(t *testing.T) {
	bad := []Config{
		{},
		{Workers: []string{"http://x"}, N: 0},
		{Workers: []string{"http://x"}, N: 32, Solver: "quantum"},
		{Workers: []string{"http://x"}, N: 32, Solver: "admm"},
		{Workers: []string{"http://x"}, N: 32, Solver: "curvy"},
		{Workers: []string{"http://x"}, N: 32, RunID: "bad id"},
	}
	for i, cfg := range bad {
		_, err := NewCoordinator(cfg)
		if err == nil {
			t.Errorf("config %d should be rejected", i)
		} else if cfg.Solver != "" && !errors.Is(err, opt.ErrUnknownSolver) {
			t.Errorf("config %d: error %v does not wrap opt.ErrUnknownSolver", i, err)
		}
	}
	if _, err := NewCoordinator(Config{Workers: []string{"http://x"}, N: 32}); err != nil {
		t.Errorf("minimal config rejected: %v", err)
	}
}

func TestSolverForRegistry(t *testing.T) {
	sim := e2eSim(t)
	// Every registered backend — including future additions — must be
	// constructible wire-side, plus the empty-name default.
	for _, name := range append([]string{""}, opt.Names()...) {
		s, err := solverFor(name, sim)
		if err != nil || s == nil {
			t.Fatalf("solverFor(%q) = %v, %v", name, s, err)
		}
	}
	for _, name := range []string{"quantum", "admm", "curvy"} {
		if _, err := solverFor(name, sim); !errors.Is(err, opt.ErrUnknownSolver) {
			t.Fatalf("solverFor(%s) error %v does not wrap opt.ErrUnknownSolver", name, err)
		}
	}
}

// TestCoordinatorKeepsWorkerCauses: when the last live worker is
// quarantined, SolveTiles's error still carries why each worker failed,
// behind its URL, and errors.As reaches the worker's own error.
func TestCoordinatorKeepsWorkerCauses(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			http.Error(rw, fmt.Sprintf("worker %d refuses", i), http.StatusBadRequest)
		}))
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	coord, err := NewCoordinator(Config{Workers: urls, N: e2eN, RunID: "fake", Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	rn := rand.New(rand.NewSource(5))
	reqs := make([]core.TileRequest, 2)
	for i := range reqs {
		reqs[i] = core.TileRequest{
			Index: i, Pixels: e2eN * e2eN,
			Target: randMat(rn, e2eN, e2eN), Init: randMat(rn, e2eN, e2eN),
			Params: opt.Params{Iters: 1, LR: 0.4, Stretch: 1},
		}
	}
	_, err = coord.SolveTiles(context.Background(), reqs)
	if err == nil {
		t.Fatal("SolveTiles succeeded on refusing workers")
	}
	for i, u := range urls {
		if want := fmt.Sprintf("%s: shard: worker returned 400: worker %d refuses", u, i); !strings.Contains(err.Error(), want) {
			t.Fatalf("SolveTiles error %q, want one containing %q", err, want)
		}
	}
	var he *httpStatusError
	if !errors.As(err, &he) || he.status != http.StatusBadRequest {
		t.Fatalf("errors.As does not reach the worker's status error: %v", err)
	}
}

// TestCoordinatorRejectsMalformedShardResponse drives the coordinator
// against a fake worker that answers every tile it was sent plus one
// more: a duplicate of a tile or an index the shard never asked for.
// Either must fail the worker, not keep the last copy or drop the
// stranger, and the failure takes the quarantine path.
func TestCoordinatorRejectsMalformedShardResponse(t *testing.T) {
	for _, tc := range []struct {
		name  string
		extra func(req *SolveRequest) int
		want  string
	}{
		{"duplicate", func(req *SolveRequest) int { return req.Tiles[0].Index }, "twice"},
		{"unrequested", func(*SolveRequest) int { return 99 }, "returned 3 tiles for a shard of 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
				req, err := ReadSolveRequest(r.Body)
				if err != nil {
					http.Error(rw, err.Error(), http.StatusBadRequest)
					return
				}
				resp := &SolveResponse{}
				for _, tw := range req.Tiles {
					resp.Tiles = append(resp.Tiles, TileResult{Index: tw.Index, Mask: tw.Init})
				}
				resp.Tiles = append(resp.Tiles, TileResult{Index: tc.extra(req), Mask: req.Tiles[0].Init})
				WriteSolveResponse(rw, resp)
			}))
			defer srv.Close()
			coord, err := NewCoordinator(Config{Workers: []string{srv.URL}, N: e2eN, RunID: "fake", Retry: fastRetry()})
			if err != nil {
				t.Fatal(err)
			}
			rn := rand.New(rand.NewSource(4))
			reqs := make([]core.TileRequest, 2)
			for i := range reqs {
				reqs[i] = core.TileRequest{
					Index: i, Pixels: e2eN * e2eN,
					Target: randMat(rn, e2eN, e2eN), Init: randMat(rn, e2eN, e2eN),
					Params: opt.Params{Iters: 1, LR: 0.4, Stretch: 1},
				}
			}
			_, err = coord.SolveTiles(context.Background(), reqs)
			if err == nil {
				t.Fatal("SolveTiles accepted the malformed response")
			}
			for _, want := range []string{"all 1 workers failed", srv.URL + ": ", tc.want} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("SolveTiles error %q, want one containing %q", err, want)
				}
			}
			if st := coord.Stats(); st.WorkersQuarantined != 1 {
				t.Errorf("the worker was not quarantined: %+v", st)
			}
		})
	}
}
