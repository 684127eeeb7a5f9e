package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"mgsilt/internal/core"
	"mgsilt/internal/device"
	"mgsilt/internal/grid"
	"mgsilt/internal/litho"
	"mgsilt/internal/opt"
	"mgsilt/internal/promtext"
)

// WorkerOptions configures a shard worker process.
type WorkerOptions struct {
	// Devices is the worker's simulated accelerator count (its local
	// device.Cluster size). Default 1.
	Devices int
	// MaxBodyBytes caps a solve request body. Default 64 MiB.
	MaxBodyBytes int64
	// MaxSessions bounds the cached coordinator sessions; the least
	// recently used session is evicted beyond it. Default 8.
	MaxSessions int
	// FailAfterSolves, when positive, makes the worker serve exactly
	// that many solve batches and then fail every further one with a
	// 500 — the deterministic stand-in for a crashed worker that the
	// CI kill-and-reassign case drives. 0 disables the chaos hook.
	FailAfterSolves int
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Devices <= 0 {
		o.Devices = 1
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 64 << 20
	}
	if o.MaxSessions <= 0 {
		o.MaxSessions = 8
	}
	return o
}

// tileState is the worker's cached per-tile state within one session:
// the target and freeze mask (sent once, referenced thereafter) and
// the base — this worker's last returned solution for the tile, which
// incoming halo patches apply against.
type tileState struct {
	target *grid.Mat
	freeze *grid.Mat
	base   *grid.Mat
}

// session is one coordinator session's tile state.
type session struct {
	tiles map[int]*tileState
	used  time.Time
}

// BatchRecord is one solve batch in the worker's stage timeline,
// exported as JSON via /v1/shard/timeline and uploaded as a CI
// artifact by the shard-equivalence job.
type BatchRecord struct {
	Session   string  `json:"session"`
	Solver    string  `json:"solver"`
	N         int     `json:"n"`
	Tiles     int     `json:"tiles"`
	HaloInits int     `json:"halo_inits"`
	FullInits int     `json:"full_inits"`
	WallMS    float64 `json:"wall_ms"`
	SimMS     float64 `json:"sim_ms"`
}

// Worker is the shard worker service: it owns a device.Cluster and a
// per-session tile-state cache, solves the shards a coordinator sends
// it, and reports the accounting delta of every batch. Solve batches
// are serialised (one at a time) so the cluster-stats delta of a batch
// is attributable to it.
type Worker struct {
	opts WorkerOptions
	cl   *device.Cluster

	mu       sync.Mutex
	sessions map[string]*session
	clock    int // logical clock for session LRU

	// Metrics counters (guarded by mu).
	mBatches, mTiles, mFailures  int64
	mBytesIn, mBytesOut          int64
	mHaloInits, mFullInits       int64
	mCachedTargets, mFullTargets int64
	timeline                     []BatchRecord
}

// NewWorker builds the worker and its accelerator cluster.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	opts = opts.withDefaults()
	cl, err := device.NewCluster(opts.Devices, 0)
	if err != nil {
		return nil, err
	}
	return &Worker{
		opts:     opts,
		cl:       cl,
		sessions: make(map[string]*session),
	}, nil
}

// solverFor builds φ(·) by wire name through the opt registry — the
// same resolution every other selection layer uses, so coordinator
// and worker can never disagree on the name vocabulary.
func solverFor(name string, sim *litho.Simulator) (opt.Solver, error) {
	if name == "" {
		name = opt.DefaultSolver
	}
	sv, err := opt.New(name, sim)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	return sv, nil
}

// errStaleSession marks a request referencing cached state this worker
// does not hold (evicted, restarted, or never sent). The coordinator
// maps it to a full resend, not a worker failure.
type staleSessionError struct{ msg string }

func (e *staleSessionError) Error() string { return e.msg }

// Solve executes one coordinator batch. It is the transport-agnostic
// core of the HTTP handler (tests drive it directly too).
func (w *Worker) Solve(ctx context.Context, req *SolveRequest) (*SolveResponse, error) {
	w.mu.Lock()
	defer w.mu.Unlock()

	if w.opts.FailAfterSolves > 0 && w.mBatches >= int64(w.opts.FailAfterSolves) {
		w.mFailures++
		return nil, fmt.Errorf("shard: worker failing after %d solves (chaos)", w.opts.FailAfterSolves)
	}

	sim, err := litho.Standard(req.N)
	if err != nil {
		w.mFailures++
		return nil, err
	}
	solver, err := solverFor(req.Solver, sim)
	if err != nil {
		w.mFailures++
		return nil, err
	}
	sess := w.session(req.Session)

	// Resolve every tile's inputs from the wire and the session cache
	// before any solve runs, so a stale reference fails the whole batch
	// cleanly (the coordinator resends in full).
	states := make([]*tileState, len(req.Tiles))
	reqs := make([]core.TileRequest, len(req.Tiles))
	halo, full := 0, 0
	for i := range req.Tiles {
		t := &req.Tiles[i]
		st := sess.tiles[t.Index]
		if st == nil {
			st = &tileState{}
			sess.tiles[t.Index] = st
		}
		states[i] = st
		switch {
		case t.Target != nil:
			st.target = t.Target
			w.mFullTargets++
		case t.TargetCached && st.target != nil:
			w.mCachedTargets++
		default:
			w.mFailures++
			return nil, &staleSessionError{fmt.Sprintf("shard: tile %d target not cached in session %s", t.Index, req.Session)}
		}
		var freeze *grid.Mat
		switch {
		case t.Freeze != nil:
			st.freeze = t.Freeze
			freeze = t.Freeze
		case t.FreezeCached:
			if st.freeze == nil {
				w.mFailures++
				return nil, &staleSessionError{fmt.Sprintf("shard: tile %d freeze not cached in session %s", t.Index, req.Session)}
			}
			freeze = st.freeze
		}
		init := t.Init
		if init != nil {
			full++
		} else {
			if init, err = t.Patch.Apply(st.base); err != nil {
				w.mFailures++
				return nil, &staleSessionError{fmt.Sprintf("shard: tile %d has no base for halo patch in session %s", t.Index, req.Session)}
			}
			halo++
		}
		reqs[i] = core.TileRequest{
			Index: t.Index, Pixels: t.Pixels,
			Target: st.target, Init: init,
			Params: opt.Params{Iters: t.Iters, LR: t.LR, Stretch: t.Stretch, PVWeight: t.PVWeight, Freeze: freeze},
		}
	}

	// Solve the shard on the local cluster, through the same in-process
	// backend as a flow without cache or batcher. The stats snapshot
	// pair around it is why batches are serialised: the delta is this
	// batch's accounting.
	before := w.cl.Stats()
	wallStart := time.Now()
	out, err := (&core.Local{Cluster: w.cl, Solver: solver}).SolveTiles(ctx, reqs)
	if err != nil {
		w.mFailures++
		return nil, err
	}
	resp := &SolveResponse{Stats: w.cl.Stats().Sub(before)}
	for i, r := range reqs {
		states[i].base = out[i]
		resp.Tiles = append(resp.Tiles, TileResult{Index: r.Index, Mask: out[i]})
	}

	w.mBatches++
	w.mTiles += int64(len(reqs))
	w.mHaloInits += int64(halo)
	w.mFullInits += int64(full)
	w.timeline = append(w.timeline, BatchRecord{
		Session: req.Session, Solver: req.Solver, N: req.N,
		Tiles: len(reqs), HaloInits: halo, FullInits: full,
		WallMS: float64(time.Since(wallStart).Microseconds()) / 1e3,
		SimMS:  float64(resp.Stats.SimElapsed.Microseconds()) / 1e3,
	})
	if len(w.timeline) > maxTimeline {
		w.timeline = w.timeline[len(w.timeline)-maxTimeline:]
	}
	return resp, nil
}

// maxTimeline bounds the /v1/shard/timeline ring buffer.
const maxTimeline = 1024

// session returns (creating if needed) the named session, evicting
// the least recently used one beyond MaxSessions.
func (w *Worker) session(id string) *session {
	w.clock++
	s := w.sessions[id]
	if s == nil {
		s = &session{tiles: make(map[int]*tileState)}
		w.sessions[id] = s
		if len(w.sessions) > w.opts.MaxSessions {
			var lruID string
			var lru time.Time
			first := true
			for k, v := range w.sessions {
				if k == id {
					continue
				}
				if first || v.used.Before(lru) {
					lruID, lru, first = k, v.used, false
				}
			}
			delete(w.sessions, lruID)
		}
	}
	s.used = time.Unix(0, int64(w.clock))
	return s
}

// Handler returns the worker's HTTP surface:
//
//	POST /v1/shard/solve     solve one shard batch (shard wire format)
//	GET  /healthz            liveness + gauges (JSON)
//	GET  /metrics            Prometheus text format
//	GET  /v1/shard/timeline  per-batch stage timeline (JSON)
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/shard/solve", w.handleSolve)
	mux.HandleFunc("GET /healthz", w.handleHealth)
	mux.HandleFunc("GET /metrics", w.handleMetrics)
	mux.HandleFunc("GET /v1/shard/timeline", w.handleTimeline)
	return mux
}

func (w *Worker) handleSolve(rw http.ResponseWriter, r *http.Request) {
	// Count what the decoder read: ContentLength is -1 for a chunked body.
	body := &countReader{r: http.MaxBytesReader(rw, r.Body, w.opts.MaxBodyBytes)}
	req, err := ReadSolveRequest(body)
	if err != nil {
		w.mu.Lock()
		w.mFailures++
		w.mu.Unlock()
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	resp, err := w.Solve(r.Context(), req)
	if err != nil {
		status := http.StatusInternalServerError
		if _, stale := err.(*staleSessionError); stale {
			status = http.StatusConflict
		}
		http.Error(rw, err.Error(), status)
		return
	}
	rw.Header().Set("Content-Type", "application/octet-stream")
	cw := &countWriter{w: rw}
	if err := WriteSolveResponse(cw, resp); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
	w.mu.Lock()
	w.mBytesIn += body.n
	w.mBytesOut += cw.n
	w.mu.Unlock()
}

type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (w *Worker) handleHealth(rw http.ResponseWriter, _ *http.Request) {
	w.mu.Lock()
	h := map[string]any{
		"ok":       true,
		"devices":  w.cl.Devices(),
		"sessions": len(w.sessions),
		"batches":  w.mBatches,
		"tiles":    w.mTiles,
	}
	w.mu.Unlock()
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(h)
}

func (w *Worker) handleTimeline(rw http.ResponseWriter, _ *http.Request) {
	w.mu.Lock()
	tl := append([]BatchRecord(nil), w.timeline...)
	w.mu.Unlock()
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(tl)
}

func (w *Worker) handleMetrics(rw http.ResponseWriter, _ *http.Request) {
	w.mu.Lock()
	batches, tiles, failures := w.mBatches, w.mTiles, w.mFailures
	bytesIn, bytesOut := w.mBytesIn, w.mBytesOut
	haloInits, fullInits := w.mHaloInits, w.mFullInits
	cachedTargets, fullTargets := w.mCachedTargets, w.mFullTargets
	sessions := len(w.sessions)
	w.mu.Unlock()
	st := w.cl.Stats()

	rw.Header().Set("Content-Type", promtext.ContentType)
	// Values are passed as floats, so large counts keep the %g form
	// TestWorkerMetricsGolden pins.
	m := promtext.New(rw)
	m.Counter("ilt_shard_worker_solve_batches_total", "Solve batches served.", float64(batches))
	m.Counter("ilt_shard_worker_tiles_total", "Tile solves executed.", float64(tiles))
	m.Counter("ilt_shard_worker_failures_total", "Failed solve requests (decode, stale session, solve, chaos).", float64(failures))
	m.Counter("ilt_shard_worker_request_bytes_total", "Solve request bytes received.", float64(bytesIn))
	m.Counter("ilt_shard_worker_response_bytes_total", "Solve response bytes sent.", float64(bytesOut))
	m.Counter("ilt_shard_worker_halo_init_tiles_total", "Tile inits received as halo diff patches.", float64(haloInits))
	m.Counter("ilt_shard_worker_full_init_tiles_total", "Tile inits received as full masks.", float64(fullInits))
	m.Counter("ilt_shard_worker_cached_target_tiles_total", "Tile targets resolved from session cache.", float64(cachedTargets))
	m.Counter("ilt_shard_worker_sent_target_tiles_total", "Tile targets received in full.", float64(fullTargets))
	m.Gauge("ilt_shard_worker_sessions", "Live coordinator sessions.", float64(sessions))
	m.Gauge("ilt_shard_worker_devices", "Accelerator devices in the worker cluster.", float64(w.cl.Devices()))
	m.Counter("ilt_shard_worker_sim_busy_seconds_total", "Simulated device busy time.", st.TotalBusy.Seconds())
	m.Counter("ilt_shard_worker_sim_elapsed_seconds_total", "Simulated cluster makespan.", st.SimElapsed.Seconds())
}
