// Package service implements a long-lived concurrent ILT job service:
// the orchestration substrate that turns the repository's batch flows
// (internal/core) into schedulable units of work, the shape in which
// full-chip ILT is actually operated — a fleet of tile jobs submitted,
// queued, executed on bounded accelerator pools, observed, and
// collected.
//
// The server owns an in-memory job store and a FIFO queue drained by a
// bounded worker pool; each worker owns one device.Cluster (the
// simulated accelerator pool of internal/device), so concurrency is
// the worker count and per-job parallelism is the cluster's device
// count. Every job runs under its own context.Context carrying the
// client's deadline/cancellation, threaded through core → opt → device
// so a cancelled HTTP job stops mid-iteration instead of running to
// completion. Flow progress is captured through core.Config.Progress
// and surfaced via polling; the stage-pipeline engine's per-stage
// wall times feed both the job's stage_timeline in status JSON and
// the ilt_stage_duration_seconds histogram, and the whole system is
// observable through /healthz and Prometheus-text /metrics.
//
// A finished job's result stays readable for the life of the server,
// but its mask does not stay in RAM: it is written to a results
// directory private to the server (<StateDir>/results, or a fresh
// directory under $TMPDIR), which Shutdown removes, and read back only
// by Result and /mask.pgm. So the server's memory does not grow with
// the number of jobs it has finished; a mask whose write fails stays
// in the job's record instead.
//
// HTTP surface (see Handler):
//
//	POST   /v1/jobs             submit (JobSpec JSON) → 202 + job id
//	GET    /v1/jobs             list all jobs
//	GET    /v1/jobs/{id}        status + progress
//	GET    /v1/jobs/{id}/result metrics JSON (internal/report shapes)
//	GET    /v1/jobs/{id}/mask.pgm  binarised mask (internal/imgio PGM)
//	DELETE /v1/jobs/{id}        cancel (queued or running)
//	GET    /healthz             liveness + queue/worker gauges
//	GET    /metrics             Prometheus text format
package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"mgsilt/internal/cache"
	"mgsilt/internal/core"
	"mgsilt/internal/device"
	"mgsilt/internal/fault"
	"mgsilt/internal/grid"
	"mgsilt/internal/layout"
	"mgsilt/internal/litho"
	"mgsilt/internal/opt"
	"mgsilt/internal/parallel"
	"mgsilt/internal/pipeline"
	"mgsilt/internal/sched"
	"mgsilt/internal/shard"
)

// State is a job's lifecycle state.
type State string

// Job lifecycle: queued → running → {done, failed, cancelled}; a
// queued job may be cancelled without ever running.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobSpec is the submit payload: which flow to run, on which clip, at
// which scale, plus optional core.Config knob overrides.
type JobSpec struct {
	// Flow selects the core flow by core.Flow name: "mgs"
	// (multigrid-Schwarz), "dc" (divide-and-conquer), "fullchip" or
	// "heal" (stitch-and-heal). With Solver "multilevel", "fullchip" is
	// Table 1's Full-chip reference.
	Flow string `json:"flow"`
	// Solver selects φ(·) by opt registry name — opt.Names() is the
	// accepted vocabulary (levelset, multilevel, pixel);
	// empty means opt.DefaultSolver.
	Solver string `json:"solver,omitempty"`
	// N is the native simulator grid (power of two; default 64).
	N int `json:"n,omitempty"`
	// ClipSize is the layout side (default 2·N; must be a power-of-two
	// multiple of N).
	ClipSize int `json:"clip_size,omitempty"`
	// Seed selects the deterministic synthetic clip (default 1).
	Seed int64 `json:"seed,omitempty"`
	// LayoutRects, when non-empty, is an uploaded layout in the .rects
	// text format (see internal/layout); it overrides Seed.
	LayoutRects string `json:"layout_rects,omitempty"`
	// Iters is the baseline iteration budget scaled into the flow's
	// schedule exactly as core.DefaultConfig does (default 20).
	Iters int `json:"iters,omitempty"`
	// TimeoutMS bounds the job's wall time; 0 uses the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Optional core.Config overrides (nil = DefaultConfig value).
	CoarseScale *int     `json:"coarse_scale,omitempty"`
	CoarseIters *int     `json:"coarse_iters,omitempty"`
	FineIters   *int     `json:"fine_iters,omitempty"`
	FineStages  *int     `json:"fine_stages,omitempty"`
	RefineIters *int     `json:"refine_iters,omitempty"`
	LR          *float64 `json:"lr,omitempty"`
	PVWeight    *float64 `json:"pv_weight,omitempty"`
	// CoarseCorrect toggles the two-level Schwarz coarse-grid
	// correction between fine stages; DropTol enables per-tile
	// convergence dropout (per-pixel RMS tolerance, 0 = off). Both are
	// off when nil.
	CoarseCorrect *bool    `json:"coarse_correct,omitempty"`
	DropTol       *float64 `json:"drop_tol,omitempty"`
}

// Progress is the latest core.Config.Progress event of a job, plus a
// monotone event counter so pollers can detect advancement even when
// a stage repeats.
type Progress struct {
	Stage string `json:"stage"`
	Iter  int    `json:"iter"`
	Total int    `json:"total"`
	Units int    `json:"units"`
}

// StageTime is one entry of a job's stage timeline: a completed
// pipeline-engine stage (or the final "inspect" evaluation) with its
// measured wall time. The timeline is an append-only execution log —
// on a resumed job it spans attempts, and resume-skipped stages do not
// reappear.
type StageTime struct {
	Stage  string  `json:"stage"`
	Iter   int     `json:"iter"`
	Total  int     `json:"total"`
	WallMS float64 `json:"wall_ms"`
}

// Status is the externally visible job record.
type Status struct {
	ID       string   `json:"id"`
	Flow     string   `json:"flow"`
	State    State    `json:"state"`
	Progress Progress `json:"progress"`
	Error    string   `json:"error,omitempty"`
	// Attempts counts how many times the job has entered the running
	// state (1 for a job that never needed a resume).
	Attempts int `json:"attempts"`
	// ResumedFrom, on a job re-enqueued via Resume, is the checkpoint
	// stage the current/next attempt starts after (nil when the job
	// restarted from scratch or was never resumed).
	ResumedFrom *int `json:"resumed_from,omitempty"`
	// CheckpointStage is the latest stage the flow has checkpointed
	// (0 until the first stage completes); a Resume would restart
	// after this stage.
	CheckpointStage int `json:"checkpoint_stage"`
	// StageTimeline is the engine-measured per-stage wall-time log of
	// the job's executed stages, in execution order across attempts.
	StageTimeline []StageTime `json:"stage_timeline,omitempty"`
	CreatedAt     time.Time   `json:"created_at"`
	StartedAt     *time.Time  `json:"started_at,omitempty"`
	FinishedAt    *time.Time  `json:"finished_at,omitempty"`
}

// job is the internal record; mutable fields are guarded by Server.mu.
type job struct {
	id          string
	spec        JobSpec
	state       State
	progress    Progress
	err         string
	created     time.Time
	started     time.Time
	finished    time.Time
	cancel      context.CancelFunc
	result      *core.Result // its mask is in Server.resultDir unless that write failed
	attempts    int
	resumedFrom *int
	// checkpoint is the latest stage snapshot (all flows) of a job that
	// can still be resumed from it; a finished job keeps its result and
	// only the stage number, checkpointStage.
	checkpoint      *core.Checkpoint
	checkpointStage int
	timeline        []StageTime // engine-fed stage execution log
}

func (j *job) status() Status {
	st := Status{
		ID:        j.id,
		Flow:      j.spec.Flow,
		State:     j.state,
		Progress:  j.progress,
		Error:     j.err,
		Attempts:  j.attempts,
		CreatedAt: j.created,
	}
	if j.resumedFrom != nil {
		v := *j.resumedFrom
		st.ResumedFrom = &v
	}
	st.CheckpointStage = j.checkpointStage
	if len(j.timeline) > 0 {
		st.StageTimeline = append([]StageTime(nil), j.timeline...)
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}

// Options configures a Server.
type Options struct {
	// Workers is the worker-pool size: the number of jobs optimised
	// concurrently. Default 2.
	Workers int
	// DevicesPerWorker is the simulated accelerator count of each
	// worker's device.Cluster. Default 1.
	DevicesPerWorker int
	// QueueCap bounds the FIFO queue; submits beyond it are rejected
	// with 503. Default 64.
	QueueCap int
	// DefaultTimeout bounds jobs that do not set TimeoutMS; 0 means
	// no deadline.
	DefaultTimeout time.Duration
	// MaxN bounds the per-job simulator grid (default 256) so one
	// submit cannot monopolise the pool.
	MaxN int

	// FaultRate, when positive, installs a deterministic chaos
	// injector on every worker cluster: each tile-job attempt fails
	// transiently at the device.run site with this probability, and the
	// cluster retries it under the default fault.Retry policy. The
	// schedule is a pure function of (FaultSeed, site, key), so a chaos
	// run is reproducible from its seed. 0 (the default) disables
	// injection.
	FaultRate float64
	// FaultSeed seeds the chaos injector (used only when FaultRate > 0).
	FaultSeed int64

	// CacheBytes, when positive (or CacheDir set), enables the shared
	// content-addressed tile-result cache: fine-grid tile solves whose
	// inputs (tile-local geometry + optics + solver config + solve
	// params) recur — across tiles, across jobs, across resubmits —
	// short-circuit to the stored result, bit-identically, without
	// charging device time. CacheBytes is the RAM budget (0 with a
	// CacheDir selects the cache default).
	CacheBytes int64
	// CacheDir, when set, adds the write-through on-disk spill layer so
	// cached results survive restarts and outgrow the RAM budget.
	CacheDir string

	// BatchSize, when >= 2, enables lockstep batching: each round's
	// cache-missing tile solves are cut into batches of up to BatchSize
	// tiles of one class, each solved as one device job, so the engine's
	// batched FFT transforms amortise across the round. The batch
	// counters are shared by all jobs.
	BatchSize int

	// StateDir, when set, makes the job queue durable: submissions,
	// state transitions and stage checkpoints are journalled there, and
	// a restarted server re-enqueues the journal's queued and running
	// jobs (running ones resume from their last checkpoint). Terminal
	// jobs reappear as history without their result payloads.
	StateDir string

	// ShardWorkers, when non-empty, distributes every job's tile
	// fan-out across these remote iltworker base URLs instead of the
	// local cluster (internal/shard). Each job gets its own
	// coordinator (and worker-side session), and results stay
	// byte-identical to in-process runs at any worker count. The
	// shared tile cache and lockstep batching do not apply to sharded
	// tile solves.
	ShardWorkers []string
}

// maxIters bounds the per-job iteration budget so one submit cannot
// monopolise the pool.
const maxIters = 10000

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.DevicesPerWorker <= 0 {
		o.DevicesPerWorker = 1
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 64
	}
	if o.MaxN <= 0 {
		o.MaxN = 256
	}
	return o
}

// Server is the ILT job service.
type Server struct {
	opts  Options
	start time.Time

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	queue  chan *job
	closed bool
	nextID int

	wg       sync.WaitGroup
	clusters []*device.Cluster

	cache   *cache.Cache   // nil when disabled
	batcher *sched.Batcher // nil when disabled
	store   *jobStore      // nil when not durable

	// resultDir holds done jobs' masks, one <id>.mask file each (the
	// pipeline checkpoint encoding).
	resultDir string

	// Shard accounting, aggregated across every finished job's
	// coordinator (guarded by shardMu; nil stats when not sharding).
	shardMu    sync.Mutex
	shardRuns  int64
	shardStats shard.Stats

	metrics *registry
}

// New builds the server and starts its worker pool. With a StateDir,
// the previous run's journal is replayed first: non-terminal jobs are
// re-enqueued (ahead of any new submission) before the workers start.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		start:   time.Now(),
		jobs:    make(map[string]*job),
		queue:   make(chan *job, opts.QueueCap),
		metrics: newRegistry(),
	}
	if opts.FaultRate < 0 || opts.FaultRate > 1 {
		return nil, fmt.Errorf("service: fault rate %g out of [0, 1]", opts.FaultRate)
	}
	if opts.CacheBytes > 0 || opts.CacheDir != "" {
		c, err := cache.New(cache.Options{MaxBytes: opts.CacheBytes, Dir: opts.CacheDir})
		if err != nil {
			return nil, err
		}
		s.cache = c
	}
	if opts.BatchSize >= 2 {
		s.batcher = sched.New(sched.Options{BatchSize: opts.BatchSize})
	}
	if opts.StateDir != "" {
		st, err := openJobStore(opts.StateDir)
		if err != nil {
			return nil, err
		}
		s.store = st
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	dir, err := resultsDir(opts.StateDir)
	if err != nil {
		return nil, fmt.Errorf("service: results directory: %w", err)
	}
	s.resultDir = dir
	for i := 0; i < opts.Workers; i++ {
		cl, err := device.NewCluster(opts.DevicesPerWorker, 0)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		if opts.FaultRate > 0 {
			cl.Injector = fault.NewSeeded(opts.FaultSeed, fault.Rates{Transient: opts.FaultRate})
			cl.Retry = &fault.Retry{}
		}
		s.clusters = append(s.clusters, cl)
		s.wg.Add(1)
		go s.worker(cl)
	}
	return s, nil
}

// resultsDir makes an empty directory for done jobs' masks: under
// stateDir when the queue is durable, so a server killed before its
// Shutdown leaves it where the next one (which does not restore
// results) clears it, and otherwise a fresh one under $TMPDIR.
func resultsDir(stateDir string) (string, error) {
	if stateDir == "" {
		return os.MkdirTemp("", "iltserver-results-")
	}
	dir := filepath.Join(stateDir, "results")
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.Mkdir(dir, 0o700)
}

// maskPath is where job id's mask lives once it is done.
func (s *Server) maskPath(id string) string { return filepath.Join(s.resultDir, id+".mask") }

// spillMask writes a done job's mask to the results directory and
// returns the result without it; if the write fails, the result keeps
// its mask, so a done job's mask is never lost.
func (s *Server) spillMask(id string, res *core.Result) *core.Result {
	ck := &core.Checkpoint{Flow: "result", Stage: 1, Total: 1, Mask: res.Mask}
	if err := pipeline.WriteCheckpointFile(s.maskPath(id), ck); err != nil {
		return res
	}
	r := *res
	r.Mask = nil
	return &r
}

// recover replays the job journal into the in-memory store and
// re-enqueues every non-terminal job, a previously running job
// resuming from its last journalled checkpoint. Called from New before
// the workers start, so recovered jobs run ahead of new submissions.
func (s *Server) recover() error {
	recs, cks, err := s.store.load()
	if err != nil {
		return err
	}
	recovered := 0
	for _, rec := range recs {
		j := &job{
			id: rec.ID, spec: rec.Spec, state: rec.State, err: rec.Error,
			attempts: rec.Attempts, created: rec.Created,
			started: rec.Started, finished: rec.Finished,
		}
		if ck := cks[rec.ID]; ck != nil {
			j.checkpointStage = ck.Stage
			if j.state != StateDone {
				j.checkpoint = ck
			}
		}
		if rec.ResumedFrom != nil {
			v := *rec.ResumedFrom
			j.resumedFrom = &v
		}
		if _, dup := s.jobs[j.id]; dup {
			continue
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if n, err := jobIDNum(j.id); err == nil && n > s.nextID {
			s.nextID = n
		}
		if j.state.Terminal() {
			continue
		}
		// Journalled specs are normally already normalized by Submit,
		// but the journal is external input: re-normalize, and fail a
		// record this server cannot run (e.g. its MaxN shrank, or the
		// spec names a knob this build dropped) instead of crashing the
		// flow later or running it without the knob.
		err := rec.unknown
		if err == nil {
			err = s.normalize(&j.spec)
		}
		if err != nil {
			j.state = StateFailed
			j.err = err.Error()
			j.finished = time.Now()
			s.persistLocked(j)
			continue
		}
		// Interrupted job: back into the queue. A job the old process
		// had running resumes after its last checkpointed stage.
		j.state = StateQueued
		j.err = ""
		j.finished = time.Time{}
		j.resumedFrom = nil
		if j.checkpoint != nil {
			v := j.checkpoint.Stage
			j.resumedFrom = &v
		}
		select {
		case s.queue <- j:
			recovered++
		default:
			// More interrupted jobs than this process's queue capacity;
			// fail the overflow explicitly rather than dropping silently.
			j.state = StateFailed
			j.err = "service: recovered job exceeds queue capacity"
			j.finished = time.Now()
		}
		s.persistLocked(j)
	}
	s.metrics.recovered(recovered)
	return nil
}

// persistLocked journals the job's current state. Best-effort by
// design: a journal write failure must not fail the serving path (the
// in-memory store remains authoritative for this process's lifetime).
// Caller holds s.mu (or, during New, has exclusive access).
func (s *Server) persistLocked(j *job) {
	if s.store == nil {
		return
	}
	_ = s.store.saveRecord(recordOf(j))
}

// normalize fills spec defaults and validates the cheap invariants
// (full validation happens in core.Config.Validate at run time).
func (s *Server) normalize(spec *JobSpec) error {
	if _, err := core.Flow(spec.Flow); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if spec.Solver == "" {
		spec.Solver = opt.DefaultSolver
	}
	if !opt.Known(spec.Solver) {
		return fmt.Errorf("service: %w %q (registered: %v)", opt.ErrUnknownSolver, spec.Solver, opt.Names())
	}
	if spec.N == 0 {
		spec.N = 64
	}
	if spec.N < 32 || spec.N > s.opts.MaxN || spec.N&(spec.N-1) != 0 {
		return fmt.Errorf("service: n %d must be a power of two in [32, %d]", spec.N, s.opts.MaxN)
	}
	if spec.ClipSize == 0 {
		spec.ClipSize = 2 * spec.N
	}
	if spec.ClipSize < spec.N || spec.ClipSize > 4*s.opts.MaxN {
		return fmt.Errorf("service: clip_size %d out of range", spec.ClipSize)
	}
	if spec.Iters == 0 {
		spec.Iters = 20
	}
	if spec.Iters < 1 || spec.Iters > maxIters {
		return fmt.Errorf("service: iters %d out of [1, %d]", spec.Iters, maxIters)
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	if spec.TimeoutMS < 0 {
		return fmt.Errorf("service: negative timeout_ms")
	}
	return nil
}

// Submit validates the spec and enqueues a new job, returning its
// status snapshot. It fails when the server is draining or the queue
// is full.
func (s *Server) Submit(spec JobSpec) (Status, error) {
	if err := s.normalize(&spec); err != nil {
		return Status{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Status{}, ErrDraining
	}
	s.nextID++
	j := &job{
		id:      fmt.Sprintf("j%06d", s.nextID),
		spec:    spec,
		state:   StateQueued,
		created: time.Now(),
	}
	select {
	case s.queue <- j:
	default:
		return Status{}, ErrQueueFull
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.metrics.submitted()
	s.persistLocked(j)
	return j.status(), nil
}

// Service errors mapped to HTTP status codes by the handlers.
var (
	ErrDraining     = errors.New("service: shutting down, not accepting jobs")
	ErrQueueFull    = errors.New("service: job queue full")
	ErrNotFound     = errors.New("service: no such job")
	ErrNotDone      = errors.New("service: job has no result yet")
	ErrTerminal     = errors.New("service: job already finished")
	ErrNotResumable = errors.New("service: only failed or cancelled jobs can be resumed")
	ErrStillRunning = errors.New("service: job is still queued or running; cancel it or wait for it to finish")
	ErrResultLost   = errors.New("service: the job's mask could not be read back")
)

// Resume re-enqueues a failed or cancelled job. Every flow runs on
// the stage-pipeline engine and emits a snapshot after each completed
// stage, so the next attempt restarts after the last completed stage
// instead of from scratch, and the status reports resumed_from; a job
// killed before its first checkpoint simply reruns. Attempt, progress
// and stage-timeline history is preserved.
func (s *Server) Resume(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	if s.closed {
		return j.status(), ErrDraining
	}
	if j.state == StateQueued || j.state == StateRunning {
		// A live job must never be double-scheduled: one *job value in
		// the queue twice would run concurrently with itself.
		return j.status(), ErrStillRunning
	}
	if j.state != StateFailed && j.state != StateCancelled {
		return j.status(), ErrNotResumable
	}
	select {
	case s.queue <- j:
	default:
		return j.status(), ErrQueueFull
	}
	// The worker cannot observe j before we release s.mu, so the
	// mutation below is ordered before its runJob.
	j.state = StateQueued
	j.err = ""
	j.finished = time.Time{}
	j.resumedFrom = nil
	if j.checkpoint != nil {
		v := j.checkpoint.Stage
		j.resumedFrom = &v
	}
	s.metrics.resumed()
	s.persistLocked(j)
	return j.status(), nil
}

// Status returns a job's status snapshot.
func (s *Server) Status(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return j.status(), nil
}

// List returns all jobs in submission order.
func (s *Server) List() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	return out
}

// Result returns a finished job's flow result, its mask read back from
// the results directory (which Shutdown removes). A mask that cannot be
// read is ErrResultLost.
func (s *Server) Result(id string) (*core.Result, Status, error) {
	res, st, err := s.summary(id)
	if err != nil || res.Mask != nil {
		return res, st, err
	}
	ck, err := pipeline.ReadCheckpointFile(s.maskPath(id))
	if err != nil {
		return nil, st, fmt.Errorf("%w: job %s", ErrResultLost, id)
	}
	r := *res
	r.Mask = ck.Mask
	return &r, st, nil
}

// summary returns a finished job's flow result as its record holds it:
// everything but the mask, unless the mask could not be written out.
func (s *Server) summary(id string) (*core.Result, Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, Status{}, ErrNotFound
	}
	if j.state != StateDone || j.result == nil {
		return nil, j.status(), ErrNotDone
	}
	return j.result, j.status(), nil
}

// Cancel cancels a job: a queued job is finalised immediately without
// ever running; a running job has its context cancelled and reaches
// the cancelled state as soon as the flow observes it (within one
// solver iteration). Cancelling a terminal job returns ErrTerminal.
func (s *Server) Cancel(id string) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	switch {
	case j.state == StateQueued:
		j.state = StateCancelled
		j.err = context.Canceled.Error()
		j.finished = time.Now()
		s.metrics.finished(StateCancelled)
		s.persistLocked(j)
	case j.state == StateRunning && j.cancel != nil:
		j.cancel() // finalised by the worker when the flow unwinds
	case j.state.Terminal():
		return j.status(), ErrTerminal
	}
	return j.status(), nil
}

// Shutdown stops accepting jobs, then drains: queued and in-flight
// jobs run to completion. If ctx expires first, every remaining job is
// cancelled (queued ones immediately, running ones via their contexts)
// and Shutdown returns ctx.Err() once the workers have unwound.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	// Both ways out wait for the workers, so no mask is written after
	// the directory goes.
	defer os.RemoveAll(s.resultDir)
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancelAll()
		<-done // flows observe cancellation within one iteration
		return ctx.Err()
	}
}

func (s *Server) cancelAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		switch {
		case j.state == StateQueued:
			j.state = StateCancelled
			j.err = context.Canceled.Error()
			j.finished = time.Now()
			s.metrics.finished(StateCancelled)
			s.persistLocked(j)
		case j.state == StateRunning && j.cancel != nil:
			j.cancel()
		}
	}
}

// worker drains the FIFO queue on one accelerator cluster.
func (s *Server) worker(cl *device.Cluster) {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j, cl)
	}
}

// runJob executes one job: it builds the per-job context (deadline +
// cancellation), threads it with the progress hook through the flow,
// and finalises the job's state from the flow's outcome.
func (s *Server) runJob(j *job, cl *device.Cluster) {
	s.mu.Lock()
	if j.state != StateQueued { // cancelled while waiting
		s.mu.Unlock()
		return
	}
	timeout := s.opts.DefaultTimeout
	if j.spec.TimeoutMS > 0 {
		timeout = time.Duration(j.spec.TimeoutMS) * time.Millisecond
	}
	ctx := context.Background()
	var cancel context.CancelFunc
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.attempts++
	spec := j.spec
	resume := j.checkpoint
	s.persistLocked(j)
	s.mu.Unlock()
	defer cancel()

	// Each attempt gets a fresh hardware lease: devices quarantined by
	// a previous job's hard faults return to the pool.
	cl.Revive()

	progress := func(stage string, iter, total int) {
		s.mu.Lock()
		j.progress.Stage = stage
		j.progress.Iter = iter
		j.progress.Total = total
		j.progress.Units++
		s.mu.Unlock()
	}

	// Stage checkpoints are stored as they are emitted, so a job killed
	// after stage k can Resume from stage k even though this attempt
	// never finished.
	onCheckpoint := func(ck core.Checkpoint) {
		s.mu.Lock()
		c := ck
		j.checkpoint = &c
		j.checkpointStage = c.Stage
		s.mu.Unlock()
		if s.store != nil {
			// Outside s.mu: the disk write must not stall the API. Only
			// this worker touches this job's checkpoint file.
			_ = s.store.saveCheckpoint(j.id, &c)
		}
	}

	// Stage latency accounting comes straight from the pipeline
	// engine: each executed stage (and the final inspection) reports
	// its measured wall time, which feeds both the job's status
	// timeline and the ilt_stage_duration_seconds histogram — no
	// ad-hoc interval reconstruction from progress events.
	onStage := func(t pipeline.StageTiming) {
		s.metrics.observeStage(t.Name, t.Wall)
		s.mu.Lock()
		j.timeline = append(j.timeline, StageTime{
			Stage:  t.Name,
			Iter:   t.Iter,
			Total:  t.Total,
			WallMS: float64(t.Wall.Microseconds()) / 1e3,
		})
		s.mu.Unlock()
	}

	res, err := s.execute(ctx, spec, cl, progress, resume, onCheckpoint, onStage)
	now := time.Now()
	if err == nil {
		// Outside s.mu: the disk write must not stall the API.
		res = s.spillMask(j.id, res)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	j.finished = now
	j.cancel = nil
	switch {
	case err == nil:
		j.state = StateDone
		j.result = res
		// A done job can never be resumed: release the layout clone.
		j.checkpoint = nil
		s.metrics.twoLevel(res.TilesConverged, res.CoarseCorrections)
	case errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.err = context.Canceled.Error()
	default: // deadline expiry and genuine flow failures
		j.state = StateFailed
		j.err = err.Error()
	}
	s.metrics.finished(j.state)
	s.persistLocked(j)
}

// execute builds the environment (simulator, clip, config) and runs
// the selected flow under ctx.
func (s *Server) execute(ctx context.Context, spec JobSpec, cl *device.Cluster, progress func(string, int, int), resume *core.Checkpoint, onCheckpoint func(core.Checkpoint), onStage func(pipeline.StageTiming)) (*core.Result, error) {
	flow, err := core.Flow(spec.Flow)
	if err != nil {
		return nil, err
	}
	sim, err := litho.Standard(spec.N)
	if err != nil {
		return nil, err
	}
	target, err := s.target(spec)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(sim, spec.ClipSize, spec.Iters)
	if cfg.Solver, err = opt.New(spec.Solver, sim); err != nil {
		return nil, err
	}
	cfg.Cluster = cl
	cfg.Ctx = ctx
	// The cache is shared across all workers: that is what turns per-job
	// tile reuse into cross-job reuse (a key another job is solving is
	// waited for, not solved again). The batcher shares its counters.
	cfg.TileCache = s.cache
	cfg.Batch = s.batcher
	// Remote tile sharding: each job gets a fresh coordinator (its own
	// worker-side session), so concurrent jobs can never cross halo
	// bases. The coordinator's accounting is folded into the service's
	// shard metrics when the flow returns.
	if len(s.opts.ShardWorkers) > 0 {
		coord, err := shard.NewCoordinator(shard.Config{
			Workers: s.opts.ShardWorkers,
			N:       spec.N,
			Solver:  spec.Solver,
			RunID:   fmt.Sprintf("svc-%d-%d", os.Getpid(), s.shardRunID()),
		})
		if err != nil {
			return nil, err
		}
		cfg.Tiles = coord
		defer func() {
			s.shardMu.Lock()
			s.shardStats = s.shardStats.Add(coord.Stats())
			s.shardMu.Unlock()
		}()
	}
	cfg.Progress = progress
	cfg.StageDone = onStage
	// Every flow runs on the stage-pipeline engine, so every flow
	// checkpoints and resumes uniformly.
	cfg.Checkpoint = onCheckpoint
	cfg.Resume = resume
	if spec.CoarseScale != nil {
		cfg.CoarseScale = *spec.CoarseScale
	}
	if spec.CoarseIters != nil {
		cfg.CoarseIters = *spec.CoarseIters
	}
	if spec.FineIters != nil {
		cfg.FineIters = *spec.FineIters
	}
	if spec.FineStages != nil {
		cfg.FineStages = *spec.FineStages
	}
	if spec.RefineIters != nil {
		cfg.RefineIters = *spec.RefineIters
	}
	if spec.LR != nil {
		cfg.LR = *spec.LR
	}
	if spec.PVWeight != nil {
		cfg.PVWeight = *spec.PVWeight
	}
	if spec.CoarseCorrect != nil {
		cfg.CoarseCorrect = *spec.CoarseCorrect
	}
	if spec.DropTol != nil {
		cfg.DropTol = *spec.DropTol
	}
	return flow(cfg, target)
}

// target materialises the job's clip: an uploaded .rects layout when
// provided, otherwise the deterministic synthetic generator.
func (s *Server) target(spec JobSpec) (*grid.Mat, error) {
	if spec.LayoutRects != "" {
		clip, err := layout.ReadRects(strings.NewReader(spec.LayoutRects))
		if err != nil {
			return nil, err
		}
		if clip.Target.H != spec.ClipSize || clip.Target.W != spec.ClipSize {
			return nil, fmt.Errorf("service: uploaded layout is %dx%d, job clip_size is %d", clip.Target.H, clip.Target.W, spec.ClipSize)
		}
		return clip.Target, nil
	}
	clip, err := layout.Generate(layout.DefaultConfig(spec.ClipSize, spec.Seed))
	if err != nil {
		return nil, err
	}
	return clip.Target, nil
}

// shardRunID hands out the per-job shard session counter.
func (s *Server) shardRunID() int64 {
	s.shardMu.Lock()
	defer s.shardMu.Unlock()
	s.shardRuns++
	return s.shardRuns
}

// snapshot aggregates the gauges reported by /healthz and /metrics.
type snapshot struct {
	queued, running int
	queueDepth      int
	closed          bool
	workers         int
	computeWorkers  int // process-wide internal/parallel pool width
	uptime          time.Duration
	device          device.Stats
	cache           *cache.Stats // nil when the tile cache is disabled
	sched           *sched.Stats // nil when lockstep batching is disabled
	// shard aggregates the finished jobs' coordinator accounting;
	// nil when the server is not sharding. shardWorkers is the
	// configured worker-URL count.
	shard        *shard.Stats
	shardWorkers int
	// kernelsEvaluated is the litho engine's process-wide count of
	// Hopkins kernels evaluated (truncated evaluations count only the
	// retained prefix).
	kernelsEvaluated int64
}

func (s *Server) snapshot() snapshot {
	s.mu.Lock()
	snap := snapshot{
		queueDepth:     len(s.queue),
		closed:         s.closed,
		workers:        s.opts.Workers,
		computeWorkers: parallel.Workers(),
		uptime:         time.Since(s.start),
	}
	for _, j := range s.jobs {
		switch j.state {
		case StateQueued:
			snap.queued++
		case StateRunning:
			snap.running++
		}
	}
	s.mu.Unlock()
	for _, cl := range s.clusters {
		snap.device = snap.device.Add(cl.Stats())
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		snap.cache = &cs
	}
	if s.batcher != nil {
		bs := s.batcher.Stats()
		snap.sched = &bs
	}
	if len(s.opts.ShardWorkers) > 0 {
		s.shardMu.Lock()
		ss := s.shardStats
		s.shardMu.Unlock()
		snap.shard = &ss
		snap.shardWorkers = len(s.opts.ShardWorkers)
	}
	snap.kernelsEvaluated = litho.KernelsEvaluatedTotal()
	return snap
}
