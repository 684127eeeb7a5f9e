package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"mgsilt/internal/core"
	"mgsilt/internal/device"
	"mgsilt/internal/fault"
	"mgsilt/internal/grid"
	"mgsilt/internal/opt"
)

// Config configures a Coordinator.
type Config struct {
	// Workers are the worker base URLs (e.g. "http://127.0.0.1:9301").
	// At least one is required.
	Workers []string
	// N is the native simulator grid the workers must build optics
	// for; it must match the flow's simulator.
	N int
	// Solver selects φ(·) by opt registry name on the workers (empty
	// defaults to opt.DefaultSolver). It must match the flow's solver
	// or the distributed result diverges from the in-process one.
	Solver string
	// Retry is the per-request policy; nil uses the default (network
	// errors and 5xx responses are retryable, everything else is not).
	Retry *fault.Retry
	// RunID prefixes worker session identifiers; distinct coordinators
	// sharing workers must use distinct RunIDs. Default "run".
	RunID string
}

// Stats is the coordinator's accounting, exported to the job service's
// /metrics as the ilt_shard_coordinator_* families.
type Stats struct {
	// Batches counts SolveTiles calls; Rounds counts dispatch rounds
	// (a batch needs more than one only when a worker dies mid-batch).
	Batches int64
	Rounds  int64
	// Tiles counts tile solves dispatched (reassigned tiles count once
	// per dispatch).
	Tiles int64
	// HaloBytes is the wire payload sent as halo diff patches;
	// FullBytes the payload sent as full masks (targets, freeze masks
	// and full inits). Their ratio is the halo exchange saving.
	HaloBytes int64
	FullBytes int64
	// ReassignedTiles counts tiles re-dispatched to a surviving worker
	// after their assigned worker failed.
	ReassignedTiles int64
	// RequestRetries counts retried worker requests (transport level,
	// below reassignment).
	RequestRetries int64
	// WorkersQuarantined counts workers removed for the coordinator's
	// lifetime after exhausting the retry policy.
	WorkersQuarantined int64
}

// Add merges the accounting of another coordinator: every counter sums.
func (s Stats) Add(o Stats) Stats {
	s.Batches += o.Batches
	s.Rounds += o.Rounds
	s.Tiles += o.Tiles
	s.HaloBytes += o.HaloBytes
	s.FullBytes += o.FullBytes
	s.ReassignedTiles += o.ReassignedTiles
	s.RequestRetries += o.RequestRetries
	s.WorkersQuarantined += o.WorkersQuarantined
	return s
}

// workerState is the coordinator's view of one worker.
type workerState struct {
	url   string
	alive bool
	// epoch versions this worker's session: it bumps whenever cached
	// state may have diverged (stale-session conflict), which renames
	// the session and forces full resends.
	epoch int
	// mirror is what the worker holds per tile index under the current
	// epoch: whether target/freeze were sent, and the base (the
	// worker's last returned solution) that halo patches diff against.
	mirror map[int]*mirrorTile
}

// mirrorTile mirrors one tile's worker-side session state.
type mirrorTile struct {
	targetSent *grid.Mat
	freezeSent *grid.Mat
	base       *grid.Mat
}

func (w *workerState) reset() {
	w.epoch++
	w.mirror = make(map[int]*mirrorTile)
}

// Coordinator partitions tile batches over remote shard workers. It
// implements core.TileBackend (install it as core.Config.Tiles) and
// core.BackendStats. The flow keeps all assembly; the coordinator
// keeps per-worker mirrors of sent state so repeat stages ship only
// halo diffs; workers keep per-session bases so those diffs suffice.
//
// Worker failure is handled by quarantining the worker for the
// coordinator's lifetime and re-splitting its unfinished tiles over
// the survivors — the shard analogue of the device cluster's
// retry/quarantine policy, and bit-identical by construction because
// tile solves are placement-independent pure functions.
type Coordinator struct {
	cfg    Config
	client *http.Client
	retry  *fault.Retry

	mu      sync.Mutex
	workers []*workerState
	stats   Stats
	clStats device.Stats
}

// Coordinator is a core.TileBackend with accounting.
var (
	_ core.TileBackend  = (*Coordinator)(nil)
	_ core.BackendStats = (*Coordinator)(nil)
)

// NewCoordinator validates the config and builds the coordinator.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("shard: no workers configured")
	}
	if cfg.N < 1 {
		return nil, fmt.Errorf("shard: bad simulator grid %d", cfg.N)
	}
	if cfg.Solver != "" && !opt.Known(cfg.Solver) {
		return nil, fmt.Errorf("shard: %w %q (registered: %v)", opt.ErrUnknownSolver, cfg.Solver, opt.Names())
	}
	if cfg.RunID == "" {
		cfg.RunID = "run"
	}
	if !ValidSession(cfg.RunID) {
		return nil, fmt.Errorf("shard: run id %q not serialisable", cfg.RunID)
	}
	c := &Coordinator{cfg: cfg, client: &http.Client{Timeout: 10 * time.Minute}, retry: cfg.Retry}
	if c.retry == nil {
		c.retry = &fault.Retry{
			MaxAttempts: 3,
			BaseDelay:   50 * time.Millisecond,
			Retryable:   RetryableRequestError,
		}
	}
	for _, u := range cfg.Workers {
		c.workers = append(c.workers, &workerState{
			url:    u,
			alive:  true,
			mirror: make(map[int]*mirrorTile),
		})
	}
	return c, nil
}

// RetryableRequestError classifies worker request failures for the
// default retry policy: network-level errors and 5xx responses are
// transient (retry, then quarantine); 4xx responses are protocol
// errors and fail fast.
func RetryableRequestError(err error) bool {
	var he *httpStatusError
	if errors.As(err, &he) {
		return he.status >= 500
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	// Connection resets etc. surface as url.Error wrapping io errors.
	return errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) ||
		errors.Is(err, context.DeadlineExceeded)
}

// httpStatusError is a non-2xx worker response.
type httpStatusError struct {
	status int
	body   string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("shard: worker returned %d: %s", e.status, e.body)
}

// SimElapsed implements core.BackendStats: the coordinator's virtual
// clock, advanced per dispatch round by the slowest shard's simulated
// makespan — the distributed analogue of the cluster's batch-barrier
// clock.
func (c *Coordinator) SimElapsed() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clStats.SimElapsed
}

// ClusterStats implements core.BackendStats: the workers' aggregated
// device accounting.
func (c *Coordinator) ClusterStats() device.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.clStats
}

// Stats returns the coordinator's shard accounting snapshot.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// LiveWorkers returns how many workers are still accepting shards.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.workers {
		if w.alive {
			n++
		}
	}
	return n
}

// AssignWorker is the shard placement function: tile index modulo the
// live worker count. It is exported so the geometry tests can assert
// the exactly-once property over every shard count directly against
// the production mapping.
func AssignWorker(index, liveWorkers int) int {
	if liveWorkers < 1 {
		panic("shard: no live workers")
	}
	i := index % liveWorkers
	if i < 0 {
		i += liveWorkers
	}
	return i
}

// SolveTiles implements core.TileBackend: it splits the batch over
// the live workers, ships each shard (halo diffs where the mirror
// allows), and reassigns a dead worker's unfinished tiles to the
// survivors. Returns one solution per request, aligned with reqs. When
// the last live worker is quarantined the error joins a summary with
// the failure of every worker this call quarantined, each prefixed with
// its URL, so errors.Is and errors.As reach the causes.
func (c *Coordinator) SolveTiles(ctx context.Context, reqs []core.TileRequest) ([]*grid.Mat, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	if len(reqs) > MaxWireTiles {
		return nil, fmt.Errorf("shard: batch of %d tiles exceeds wire cap %d", len(reqs), MaxWireTiles)
	}
	c.mu.Lock()
	c.stats.Batches++
	c.mu.Unlock()

	out := make([]*grid.Mat, len(reqs))
	var failures []error              // this call's quarantines, by worker
	pending := make([]int, len(reqs)) // positions in reqs
	for i := range reqs {
		pending[i] = i
	}

	for len(pending) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		live := c.liveWorkers()
		if len(live) == 0 {
			return nil, errors.Join(append([]error{fmt.Errorf("shard: all %d workers failed", len(c.workers))}, failures...)...)
		}
		// Stable per-tile affinity: index mod live count, over the live
		// workers in configuration order.
		groups := make([][]int, len(live))
		for _, pos := range pending {
			g := AssignWorker(reqs[pos].Index, len(live))
			groups[g] = append(groups[g], pos)
		}

		type result struct {
			w     *workerState
			poss  []int
			sols  map[int]*grid.Mat // by position
			stats device.Stats
			err   error
		}
		results := make([]result, 0, len(live))
		var rmu sync.Mutex
		var wg sync.WaitGroup
		for g, poss := range groups {
			if len(poss) == 0 {
				continue
			}
			w := live[g]
			poss := poss
			wg.Add(1)
			go func() {
				defer wg.Done()
				sols, stats, err := c.solveOn(ctx, w, reqs, poss)
				rmu.Lock()
				results = append(results, result{w: w, poss: poss, sols: sols, stats: stats, err: err})
				rmu.Unlock()
			}()
		}
		wg.Wait()

		c.mu.Lock()
		c.stats.Rounds++
		var roundMakespan time.Duration
		next := pending[:0]
		for _, r := range results {
			if r.err != nil {
				// Quarantine for the coordinator's lifetime; the round loop
				// re-splits the unfinished tiles over the survivors.
				r.w.alive = false
				failures = append(failures, fmt.Errorf("%s: %w", r.w.url, r.err))
				c.stats.WorkersQuarantined++
				c.clStats.Quarantined++
				c.stats.ReassignedTiles += int64(len(r.poss))
				next = append(next, r.poss...)
				continue
			}
			for _, pos := range r.poss {
				out[pos] = r.sols[pos]
			}
			// The shards ran side by side: the clock advances by the
			// slowest one's makespan, not their sum.
			roundMakespan = max(roundMakespan, r.stats.SimElapsed)
			r.stats.SimElapsed = 0
			c.clStats = c.clStats.Add(r.stats)
		}
		c.clStats.SimElapsed += roundMakespan
		pending = next
		c.mu.Unlock()
	}
	return out, nil
}

// liveWorkers snapshots the live workers in configuration order.
func (c *Coordinator) liveWorkers() []*workerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	var live []*workerState
	for _, w := range c.workers {
		if w.alive {
			live = append(live, w)
		}
	}
	return live
}

// solveOn ships one worker's shard and integrates the response into
// the worker mirror. On a stale-session conflict (the worker lost
// state the mirror assumed) the mirror is reset — renaming the
// session — and the shard is resent in full.
func (c *Coordinator) solveOn(ctx context.Context, w *workerState, reqs []core.TileRequest, poss []int) (map[int]*grid.Mat, device.Stats, error) {
	resp, err := c.roundTrip(ctx, w, reqs, poss)
	var he *httpStatusError
	if errors.As(err, &he) && he.status == http.StatusConflict {
		c.mu.Lock()
		w.reset()
		c.stats.RequestRetries++
		c.mu.Unlock()
		resp, err = c.roundTrip(ctx, w, reqs, poss)
	}
	if err != nil {
		return nil, device.Stats{}, err
	}

	// Validate and align the response with the shard: it must carry each
	// of the shard's tiles exactly once, and nothing else.
	byIndex := make(map[int]*grid.Mat, len(resp.Tiles))
	for _, t := range resp.Tiles {
		if _, dup := byIndex[t.Index]; dup {
			return nil, device.Stats{}, fmt.Errorf("shard: worker %s returned tile %d twice", w.url, t.Index)
		}
		byIndex[t.Index] = t.Mask
	}
	if len(byIndex) != len(poss) {
		return nil, device.Stats{}, fmt.Errorf("shard: worker %s returned %d tiles for a shard of %d", w.url, len(byIndex), len(poss))
	}
	sols := make(map[int]*grid.Mat, len(poss))
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, pos := range poss {
		req := &reqs[pos]
		m := byIndex[req.Index]
		if m == nil || !m.SameShape(req.Init) {
			return nil, device.Stats{}, fmt.Errorf("shard: worker %s returned no valid solution for tile %d", w.url, req.Index)
		}
		sols[pos] = m
		mt := w.mirror[req.Index]
		if mt == nil {
			mt = &mirrorTile{}
			w.mirror[req.Index] = mt
		}
		mt.base = m
	}
	return sols, resp.Stats, nil
}

// roundTrip encodes the shard against the current mirror, posts it
// under the retry policy, and decodes the response. The mirror is
// updated with what was sent only after the worker acknowledged it.
func (c *Coordinator) roundTrip(ctx context.Context, w *workerState, reqs []core.TileRequest, poss []int) (*SolveResponse, error) {
	wreq, sentTargets, sentFreezes, haloBytes, fullBytes := c.encodeShard(w, reqs, poss)
	// One buffer of the request's size. It is not recycled: the
	// transport may still read a body after Do returns.
	payload, err := appendSolveRequest(make([]byte, 0, requestSizeHint(wreq, haloBytes+fullBytes)), wreq)
	if err != nil {
		return nil, err
	}

	var resp *SolveResponse
	attempt0 := true
	err = c.retry.Do(ctx, func(ctx context.Context, _ int) error {
		if !attempt0 {
			c.mu.Lock()
			c.stats.RequestRetries++
			c.mu.Unlock()
		}
		attempt0 = false
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/v1/shard/solve", bytes.NewReader(payload))
		if err != nil {
			return err
		}
		hreq.Header.Set("Content-Type", "application/octet-stream")
		hresp, err := c.client.Do(hreq)
		if err != nil {
			return err
		}
		defer hresp.Body.Close()
		if hresp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(io.LimitReader(hresp.Body, 1024))
			return &httpStatusError{status: hresp.StatusCode, body: string(bytes.TrimSpace(b))}
		}
		r, err := ReadSolveResponse(hresp.Body)
		if err != nil {
			return err
		}
		resp = r
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The worker has the state now; future stages may reference it.
	c.mu.Lock()
	for _, pos := range poss {
		req := &reqs[pos]
		mt := w.mirror[req.Index]
		if mt == nil {
			mt = &mirrorTile{}
			w.mirror[req.Index] = mt
		}
		if sentTargets[pos] {
			mt.targetSent = req.Target
		}
		if sentFreezes[pos] {
			mt.freezeSent = req.Params.Freeze
		}
	}
	c.stats.Tiles += int64(len(poss))
	c.stats.HaloBytes += haloBytes
	c.stats.FullBytes += fullBytes
	c.mu.Unlock()
	return resp, nil
}

// encodeShard builds the wire request for one worker's shard against
// its mirror: targets and freeze masks are sent once per epoch, and a
// tile whose mirrored base matches the desired init's shape ships only
// the bitwise diff — the overlap-halo strips — unless the diff would
// be larger than the full mask.
func (c *Coordinator) encodeShard(w *workerState, reqs []core.TileRequest, poss []int) (wreq *SolveRequest, sentTargets, sentFreezes map[int]bool, haloBytes, fullBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	wreq = &SolveRequest{
		Session: fmt.Sprintf("%s-e%d", c.cfg.RunID, w.epoch),
		N:       c.cfg.N,
		Solver:  c.cfg.Solver, // the encoder writes an empty name as opt.DefaultSolver
	}
	sentTargets = make(map[int]bool)
	sentFreezes = make(map[int]bool)
	for _, pos := range poss {
		req := &reqs[pos]
		t := TileWire{
			Index:  req.Index,
			Pixels: req.Pixels,
			Iters:  req.Params.Iters, Stretch: req.Params.Stretch,
			LR: req.Params.LR, PVWeight: req.Params.PVWeight,
		}
		mt := w.mirror[req.Index]
		if mt != nil && mt.targetSent != nil && matsBitEqual(mt.targetSent, req.Target) {
			t.TargetCached = true
		} else {
			t.Target = req.Target
			sentTargets[pos] = true
			fullBytes += 8 * int64(len(req.Target.Data))
		}
		if f := req.Params.Freeze; f != nil {
			if mt != nil && mt.freezeSent != nil && matsBitEqual(mt.freezeSent, f) {
				t.FreezeCached = true
			} else {
				t.Freeze = f
				sentFreezes[pos] = true
				fullBytes += 8 * int64(len(f.Data))
			}
		}
		var base *grid.Mat
		if mt != nil {
			base = mt.base
		}
		if p := DiffPatch(base, req.Init); p != nil && int64(p.payloadBytes()) < 8*int64(len(req.Init.Data)) {
			t.Patch = p
			haloBytes += int64(p.payloadBytes())
		} else {
			t.Init = req.Init
			fullBytes += 8 * int64(len(req.Init.Data))
		}
		wreq.Tiles = append(wreq.Tiles, t)
	}
	return wreq, sentTargets, sentFreezes, haloBytes, fullBytes
}

// matsBitEqual compares two masks bit-for-bit (the mirror must track
// exactly what the worker holds, not approximately).
func matsBitEqual(a, b *grid.Mat) bool {
	if a == b {
		return true
	}
	if !a.SameShape(b) || len(a.Data) != len(b.Data) {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}
