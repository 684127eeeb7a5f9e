package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mgsilt/internal/core"
	"mgsilt/internal/layout"
	"mgsilt/internal/opt"
)

// testOpts keeps jobs tiny (N=32 optics, 64² clips) so the whole
// lifecycle suite runs in seconds even under -race.
func testOpts() Options {
	return Options{Workers: 2, DevicesPerWorker: 2, QueueCap: 8}
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// smallSpec is a fast real job: multigrid-Schwarz on a 64² clip.
func smallSpec() JobSpec {
	return JobSpec{Flow: "mgs", N: 32, Iters: 4}
}

// longSpec is a job with a large enough iteration budget that tests
// can reliably observe (and interrupt) it mid-run.
func longSpec() JobSpec {
	return JobSpec{Flow: "fullchip", N: 32, Iters: 4000}
}

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) submitResponse {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %d: %s", resp.StatusCode, b)
	}
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

func getStatus(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %s: %d: %s", id, resp.StatusCode, b)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// get fetches path and returns the status code and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// waitFor polls the job until cond holds or the deadline passes.
func waitFor(t *testing.T, ts *httptest.Server, id string, timeout time.Duration, cond func(Status) bool) Status {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st := getStatus(t, ts, id)
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s: condition not met before deadline; last state=%s progress=%+v err=%q",
				id, st.State, st.Progress, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestLifecycleSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, testOpts())
	sr := postJob(t, ts, smallSpec())
	if sr.Job.State != StateQueued || sr.Job.ID == "" {
		t.Fatalf("submit snapshot %+v", sr.Job)
	}

	st := waitFor(t, ts, sr.Job.ID, 60*time.Second, func(st Status) bool { return st.State.Terminal() })
	if st.State != StateDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}
	if st.Progress.Units == 0 || st.Progress.Stage != "inspect" {
		t.Fatalf("progress not reported: %+v", st.Progress)
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		t.Fatalf("timestamps missing: %+v", st)
	}

	// Result JSON (internal/report metric shapes).
	resp, err := http.Get(ts.URL + sr.ResultURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d", resp.StatusCode)
	}
	var rp resultPayload
	if err := json.NewDecoder(resp.Body).Decode(&rp); err != nil {
		t.Fatal(err)
	}
	if rp.Method != "multigrid-schwarz" || rp.Metrics.L2 <= 0 || rp.AreaPx <= 0 {
		t.Fatalf("implausible result %+v", rp)
	}
	if rp.DeviceJobs == 0 {
		t.Fatal("cluster accounting missing from result")
	}

	// Mask download (internal/imgio PGM).
	mresp, err := http.Get(ts.URL + rp.MaskURL)
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mask, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(mask, []byte("P5\n64 64\n255\n")) {
		t.Fatalf("mask is not a 64x64 P5 PGM: %q", mask[:min(len(mask), 16)])
	}
}

func TestCancelMidRunStopsBeforeBudget(t *testing.T) {
	_, ts := newTestServer(t, testOpts())
	sr := postJob(t, ts, longSpec())

	// Wait until the flow is demonstrably mid-optimisation.
	waitFor(t, ts, sr.Job.ID, 30*time.Second, func(st Status) bool {
		return st.State == StateRunning && st.Progress.Units > 0
	})

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sr.Job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	cancelled := time.Now()

	st := waitFor(t, ts, sr.Job.ID, 30*time.Second, func(st Status) bool { return st.State.Terminal() })
	if st.State != StateCancelled {
		t.Fatalf("state %s (%s), want cancelled — the 4000-iteration budget must not run out first", st.State, st.Error)
	}
	// The flow must stop within an iteration or two of the cancel, not
	// after finishing its budget (which takes tens of seconds).
	if lag := st.FinishedAt.Sub(cancelled); lag > 5*time.Second {
		t.Fatalf("cancellation latency %v: job ran on after DELETE", lag)
	}
	if strings.TrimSpace(st.Error) == "" {
		t.Fatal("cancelled job must carry the cancellation error")
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueCap: 8})
	blocker := postJob(t, ts, longSpec())
	queued := postJob(t, ts, smallSpec())

	// The single worker is occupied; the second job is still queued.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.Job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := getStatus(t, ts, queued.Job.ID)
	if st.State != StateCancelled {
		t.Fatalf("queued job state %s, want immediate cancellation", st.State)
	}
	if st.StartedAt != nil {
		t.Fatal("cancelled-while-queued job must never start")
	}

	// Unblock the worker for the cleanup shutdown.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+blocker.Job.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
}

func TestDeadlineExpiryFailsJob(t *testing.T) {
	_, ts := newTestServer(t, testOpts())
	spec := longSpec()
	spec.TimeoutMS = 150
	sr := postJob(t, ts, spec)

	st := waitFor(t, ts, sr.Job.ID, 30*time.Second, func(st Status) bool { return st.State.Terminal() })
	if st.State != StateFailed {
		t.Fatalf("state %s (%s), want failed on deadline", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "deadline") {
		t.Fatalf("error %q does not name the deadline", st.Error)
	}
	if run := st.FinishedAt.Sub(*st.StartedAt); run > 5*time.Second {
		t.Fatalf("deadline job ran %v, far past its 150ms budget", run)
	}
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	s, err := New(Options{Workers: 2, DevicesPerWorker: 1, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	jobs := []submitResponse{
		postJob(t, ts, smallSpec()),
		postJob(t, ts, JobSpec{Flow: "dc", N: 32, Iters: 3}),
		postJob(t, ts, JobSpec{Flow: "heal", N: 32, Iters: 3}),
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	for _, j := range jobs {
		st, err := s.Status(j.Job.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("job %s not drained: %s (%s)", st.ID, st.State, st.Error)
		}
	}
	// Draining servers refuse new work.
	if _, err := s.Submit(smallSpec()); err != ErrDraining {
		t.Fatalf("submit after shutdown: %v", err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d", resp.StatusCode)
	}
}

func TestShutdownDeadlineCancelsInFlight(t *testing.T) {
	s, err := New(Options{Workers: 1, QueueCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sr := postJob(t, ts, longSpec())
	waitFor(t, ts, sr.Job.ID, 30*time.Second, func(st Status) bool { return st.State == StateRunning })

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("shutdown: %v, want deadline exceeded", err)
	}
	st, err := s.Status(sr.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled {
		t.Fatalf("in-flight job %s after forced shutdown, want cancelled", st.State)
	}
}

func TestQueueBoundsAndValidation(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueCap: 1})
	// Occupy the worker, fill the queue, then overflow it.
	postJob(t, ts, longSpec())
	waitFor := time.Now().Add(10 * time.Second)
	for {
		if st := s.List(); len(st) > 0 && st[0].State == StateRunning {
			break
		}
		if time.Now().After(waitFor) {
			t.Fatal("first job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	postJob(t, ts, smallSpec())
	if _, err := s.Submit(smallSpec()); err != ErrQueueFull {
		t.Fatalf("overflow submit: %v, want ErrQueueFull", err)
	}

	// Spec validation at the HTTP boundary.
	for _, bad := range []string{
		`{"flow":"warp"}`,
		`{"flow":"ours"}`,
		`{"n":32}`,
		`{"flow":"mgs","n":48}`,
		`{"flow":"mgs","iters":-2}`,
		`{"flow":"mgs","unknown_knob":1}`,
		`not json`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("spec %s accepted with %d", bad, resp.StatusCode)
		}
	}
	// A flow is one of core.Flow's names; Submit refuses any other with
	// its sentinel, a missing flow included.
	for _, flow := range []string{"warp", "ours", ""} {
		if _, err := s.Submit(JobSpec{Flow: flow}); !errors.Is(err, core.ErrUnknownFlow) {
			t.Fatalf("flow %q: %v, want core.ErrUnknownFlow", flow, err)
		}
	}

	// Cancel everything so the cleanup shutdown drains instantly
	// instead of finishing the 4000-iteration blocker.
	for _, st := range s.List() {
		if !st.State.Terminal() {
			_, _ = s.Cancel(st.ID)
		}
	}
}

// A job names its solver by registry name: a known one runs that
// backend, and an unknown one is refused at submit with the registry's
// sentinel, which the HTTP boundary answers with 400.
func TestJobSolverSelection(t *testing.T) {
	s, ts := newTestServer(t, testOpts())
	sr := postJob(t, ts, JobSpec{Flow: "dc", N: 32, Iters: 3, Solver: "levelset"})
	st := waitFor(t, ts, sr.Job.ID, 60*time.Second, func(st Status) bool { return st.State.Terminal() })
	if st.State != StateDone {
		t.Fatalf("levelset job finished %s (%s)", st.State, st.Error)
	}
	res, _, err := s.Result(sr.Job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "divide-and-conquer/gls-ilt" {
		t.Fatalf("levelset job ran %q", res.Method)
	}

	// admm and curvy were registered once; now they are unknown names.
	for _, name := range []string{"quantum", "admm", "curvy"} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(`{"flow":"dc","solver":"`+name+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("solver %s answered %d, want 400", name, resp.StatusCode)
		}
		if _, err := s.Submit(JobSpec{Flow: "dc", Solver: name}); !errors.Is(err, opt.ErrUnknownSolver) {
			t.Fatalf("solver %s: %v, want opt.ErrUnknownSolver", name, err)
		}
	}
}

func TestUploadedLayoutJob(t *testing.T) {
	clip, err := layout.Generate(layout.DefaultConfig(64, 7))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := layout.WriteRects(&buf, clip); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, testOpts())
	sr := postJob(t, ts, JobSpec{Flow: "dc", N: 32, Iters: 3, LayoutRects: buf.String()})
	st := waitFor(t, ts, sr.Job.ID, 60*time.Second, func(st Status) bool { return st.State.Terminal() })
	if st.State != StateDone {
		t.Fatalf("uploaded-layout job %s (%s)", st.State, st.Error)
	}
}

func TestMetricsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, testOpts())
	sr := postJob(t, ts, smallSpec())
	waitFor(t, ts, sr.Job.ID, 60*time.Second, func(st Status) bool { return st.State.Terminal() })

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"ilt_jobs_submitted_total 1",
		`ilt_jobs_finished_total{state="done"} 1`,
		"ilt_queue_depth 0",
		`ilt_stage_duration_seconds_count{stage="inspect"} 1`,
		"ilt_device_jobs_total",
		"ilt_device_busy_seconds_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var hp healthPayload
	if err := json.NewDecoder(hresp.Body).Decode(&hp); err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusOK || hp.Status != "ok" || hp.Workers != 2 {
		t.Fatalf("healthz %d %+v", hresp.StatusCode, hp)
	}
}

// TestTwoLevelJobMetrics drives the two-level Schwarz knobs through
// the submit payload (coarse_correct + drop_tol overrides) and pins
// their fleet counters: a finished job with corrections and converged
// tiles must show up in ilt_coarse_corrections_total and
// ilt_tiles_converged_total.
func TestTwoLevelJobMetrics(t *testing.T) {
	_, ts := newTestServer(t, testOpts())
	correct := true
	tol := 0.05
	fineStages := 4
	spec := JobSpec{
		Flow: "mgs", N: 32, Iters: 16,
		FineStages:    &fineStages,
		CoarseCorrect: &correct,
		DropTol:       &tol,
	}
	sr := postJob(t, ts, spec)
	st := waitFor(t, ts, sr.Job.ID, 120*time.Second, func(st Status) bool { return st.State.Terminal() })
	if st.State != StateDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, zero := range []string{
		"ilt_tiles_converged_total 0\n",
		"ilt_coarse_corrections_total 0\n",
	} {
		if strings.Contains(text, zero) {
			t.Fatalf("two-level counter stuck at zero after a corrected dropout job:\n%s", text)
		}
	}
	for _, want := range []string{
		"ilt_tiles_converged_total",
		"ilt_coarse_corrections_total",
		`ilt_stage_duration_seconds_count{stage="coarse-correct"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestFidelityJobMetrics drives a multi-stage job, every stage of which
// runs the one full kernel set: it must finish, the process-wide
// kernel-evaluation counter must be live, and no per-stage kernel
// budget gauge (ilt_fidelity_stage) may be exported any more.
func TestFidelityJobMetrics(t *testing.T) {
	_, ts := newTestServer(t, testOpts())
	fineStages := 2
	spec := JobSpec{
		Flow: "mgs", N: 32, Iters: 8,
		FineStages: &fineStages,
	}
	sr := postJob(t, ts, spec)
	st := waitFor(t, ts, sr.Job.ID, 120*time.Second, func(st Status) bool { return st.State.Terminal() })
	if st.State != StateDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "ilt_kernels_evaluated_total") {
		t.Fatalf("metrics missing %q in:\n%s", "ilt_kernels_evaluated_total", text)
	}
	if strings.Contains(text, "ilt_kernels_evaluated_total 0\n") {
		t.Fatalf("kernel-evaluation counter stuck at zero after a finished job:\n%s", text)
	}
	if strings.Contains(text, "ilt_fidelity_stage") {
		t.Fatalf("retired kernel-budget gauge still exported:\n%s", text)
	}
}

// TestSubmitRejectsRetiredSpecField: the spec of testdata/budget.job
// (a journal record an older build wrote) carries a per-stage kernel
// budget this build no longer has. Submitting it must answer 400 and
// name the field rather than run the job without it.
func TestSubmitRejectsRetiredSpecField(t *testing.T) {
	_, ts := newTestServer(t, testOpts())
	spec := retiredSpec(t)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ep errorPayload
	if err := json.NewDecoder(resp.Body).Decode(&ep); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(ep.Error, "unknown field") {
		t.Fatalf("spec %s answered %d %q, want 400 naming the unknown field", spec, resp.StatusCode, ep.Error)
	}
}

// retiredSpec returns the JSON spec of testdata/budget.job.
func retiredSpec(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "budget.job"))
	if err != nil {
		t.Fatal(err)
	}
	_, body, _ := bytes.Cut(data, []byte("\n"))
	var rec struct{ Spec json.RawMessage }
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	return rec.Spec
}

// TestStageTimelineInStatus pins the engine-fed stage timeline a done
// job exposes in its status JSON: the exact stage sequence of the mgs
// flow at this iteration budget, closed by the "inspect" evaluation,
// with a non-negative measured wall time per entry.
func TestStageTimelineInStatus(t *testing.T) {
	_, ts := newTestServer(t, testOpts())
	sr := postJob(t, ts, smallSpec())

	// A queued job has no timeline yet (omitempty keeps it out of the
	// JSON entirely).
	if st := getStatus(t, ts, sr.Job.ID); st.State == StateQueued && st.StageTimeline != nil {
		t.Fatalf("queued job already has a timeline: %+v", st.StageTimeline)
	}

	st := waitFor(t, ts, sr.Job.ID, 60*time.Second, func(st Status) bool { return st.State.Terminal() })
	if st.State != StateDone {
		t.Fatalf("job finished %s (%s)", st.State, st.Error)
	}
	want := []StageTime{
		{Stage: "coarse", Iter: 1, Total: 1},
		{Stage: "fine", Iter: 1, Total: 2},
		{Stage: "fine", Iter: 2, Total: 2},
		{Stage: "refine", Iter: 1, Total: 1},
		{Stage: "inspect", Iter: 1, Total: 1},
	}
	if len(st.StageTimeline) != len(want) {
		t.Fatalf("timeline %+v, want %d stages", st.StageTimeline, len(want))
	}
	for i, w := range want {
		got := st.StageTimeline[i]
		if got.Stage != w.Stage || got.Iter != w.Iter || got.Total != w.Total {
			t.Fatalf("timeline[%d] = %+v, want %s %d/%d", i, got, w.Stage, w.Iter, w.Total)
		}
		if got.WallMS < 0 {
			t.Fatalf("timeline[%d] has negative wall time: %+v", i, got)
		}
	}
}

func fetchMask(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/mask.pgm")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mask %s: %d", id, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func postResume(t *testing.T, ts *httptest.Server, id string) (int, Status) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs/"+id+"/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st
}

// TestResumeFromCheckpoint is the tentpole's end-to-end acceptance
// path: kill a multigrid-Schwarz job after it has checkpointed stage
// k, resume it, and require (a) the second attempt to restart from
// stage >= k rather than from scratch and (b) the resumed result to be
// bit-identical to an uninterrupted run of the same spec.
func TestResumeFromCheckpoint(t *testing.T) {
	_, ts := newTestServer(t, testOpts())

	// A budget large enough that the flow is still mid-run for seconds
	// after its first coarse-stage checkpoint lands.
	spec := JobSpec{Flow: "mgs", N: 32, Iters: 1000, Seed: 3}
	sr := postJob(t, ts, spec)

	// Wait for the first completed stage to checkpoint, then kill the
	// job while later stages are still running.
	waitFor(t, ts, sr.Job.ID, 60*time.Second, func(st Status) bool {
		if st.State.Terminal() {
			t.Fatalf("job finished (%s) before it could be interrupted; raise Iters", st.State)
		}
		return st.CheckpointStage >= 1
	})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sr.Job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	st := waitFor(t, ts, sr.Job.ID, 30*time.Second, func(st Status) bool { return st.State.Terminal() })
	if st.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", st.State)
	}
	if st.CheckpointStage < 1 {
		t.Fatalf("cancelled job lost its checkpoint: %+v", st)
	}

	// Resume: 202, queued, and the resume point is the checkpoint.
	code, rst := postResume(t, ts, sr.Job.ID)
	if code != http.StatusAccepted {
		t.Fatalf("resume: %d", code)
	}
	if rst.ResumedFrom == nil || *rst.ResumedFrom < 1 {
		t.Fatalf("resume did not record a resume point: %+v", rst)
	}
	if *rst.ResumedFrom != rst.CheckpointStage {
		t.Fatalf("resumed_from %d != checkpoint_stage %d", *rst.ResumedFrom, rst.CheckpointStage)
	}

	st = waitFor(t, ts, sr.Job.ID, 300*time.Second, func(st Status) bool { return st.State.Terminal() })
	if st.State != StateDone {
		t.Fatalf("resumed job %s (%s)", st.State, st.Error)
	}
	if st.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (original + resume)", st.Attempts)
	}
	if st.ResumedFrom == nil || *st.ResumedFrom < 1 {
		t.Fatalf("finished job lost resumed_from: %+v", st)
	}
	// The stage timeline is an append-only execution log across both
	// attempts: the first attempt's completed stages stay in front and
	// the resumed attempt closes it with "inspect".
	if n := len(st.StageTimeline); n == 0 || st.StageTimeline[n-1].Stage != "inspect" {
		t.Fatalf("resumed job timeline malformed: %+v", st.StageTimeline)
	}
	if st.StageTimeline[0].Stage != "coarse" || st.StageTimeline[0].Iter != 1 {
		t.Fatalf("first attempt's stages missing from timeline: %+v", st.StageTimeline)
	}

	// The resumed mask must match an uninterrupted run bit for bit.
	ref := postJob(t, ts, spec)
	waitFor(t, ts, ref.Job.ID, 300*time.Second, func(st Status) bool { return st.State == StateDone })
	if !bytes.Equal(fetchMask(t, ts, sr.Job.ID), fetchMask(t, ts, ref.Job.ID)) {
		t.Fatal("resumed mask differs from uninterrupted run")
	}

	// Resume accounting reaches /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mb, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(mb), "ilt_jobs_resumed_total 1") {
		t.Fatalf("metrics missing resume counter:\n%s", mb)
	}

	// A done job is not resumable.
	if code, _ := postResume(t, ts, sr.Job.ID); code != http.StatusConflict {
		t.Fatalf("resume of done job: %d, want 409", code)
	}
}

// TestChaosJobMatchesCleanRun runs the same job on a fault-free server
// and on a server with seeded transient faults at device.run. The
// chaos run must retry its way to a bit-identical mask and surface
// non-zero retry counters in /metrics.
func TestChaosJobMatchesCleanRun(t *testing.T) {
	spec := JobSpec{Flow: "mgs", N: 32, Iters: 4, Seed: 5}

	_, clean := newTestServer(t, testOpts())
	cj := postJob(t, clean, spec)
	waitFor(t, clean, cj.Job.ID, 120*time.Second, func(st Status) bool { return st.State == StateDone })

	opts := testOpts()
	opts.FaultRate = 0.2
	opts.FaultSeed = 11
	_, chaos := newTestServer(t, opts)
	xj := postJob(t, chaos, spec)
	st := waitFor(t, chaos, xj.Job.ID, 120*time.Second, func(st Status) bool { return st.State.Terminal() })
	if st.State != StateDone {
		t.Fatalf("chaos job %s (%s)", st.State, st.Error)
	}

	if !bytes.Equal(fetchMask(t, clean, cj.Job.ID), fetchMask(t, chaos, xj.Job.ID)) {
		t.Fatal("chaos mask differs from fault-free run: retries changed the result")
	}

	resp, err := http.Get(chaos.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"ilt_device_retries_total",
		"ilt_devices_quarantined 0", // transient-only chaos must not quarantine
		"ilt_jobs_resumed_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("chaos metrics missing %q in:\n%s", want, text)
		}
	}
	retries := 0
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "ilt_device_retries_total ") {
			if _, err := fmt.Sscanf(line, "ilt_device_retries_total %d", &retries); err != nil {
				t.Fatalf("unparseable retry counter %q: %v", line, err)
			}
		}
	}
	if retries == 0 {
		t.Fatal("fault rate 0.2 produced zero retries — injector not wired to the job path")
	}
}

func TestBadFaultRateRejected(t *testing.T) {
	for _, rate := range []float64{-0.1, 1.5} {
		opts := testOpts()
		opts.FaultRate = rate
		if _, err := New(opts); err == nil {
			t.Fatalf("fault rate %g accepted", rate)
		}
	}
}

func TestConcurrentLifecycle(t *testing.T) {
	// Several jobs racing through submit/poll/cancel across 2 workers:
	// the -race run is the point of this test.
	_, ts := newTestServer(t, testOpts())
	var ids []string
	for i := 0; i < 5; i++ {
		spec := smallSpec()
		spec.Seed = int64(i + 1)
		ids = append(ids, postJob(t, ts, spec).Job.ID)
	}
	// Cancel one of them concurrently with execution.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+ids[3], nil)
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	}
	for _, id := range ids {
		st := waitFor(t, ts, id, 120*time.Second, func(st Status) bool { return st.State.Terminal() })
		if st.State == StateFailed {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
	}
	// Not-found and not-done behaviours.
	resp, err := http.Get(ts.URL + "/v1/jobs/zzz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %d", resp.StatusCode)
	}
}

// TestFinishedJobsRetainOneMask pins the memory a finished job holds
// on to: nothing layout-sized. Its mask is in the results directory,
// one file each, and a done job can never be resumed, so its
// checkpoint (a full-layout clone) is released while checkpoint_stage
// stays in the status.
func TestFinishedJobsRetainOneMask(t *testing.T) {
	s, ts := newTestServer(t, testOpts())
	const jobs = 4
	ids := make([]string, jobs)
	for i := range ids {
		spec := smallSpec()
		spec.Seed = int64(i + 1)
		ids[i] = postJob(t, ts, spec).Job.ID
	}
	for _, id := range ids {
		st := waitFor(t, ts, id, 60*time.Second, func(st Status) bool { return st.State.Terminal() })
		if st.State != StateDone {
			t.Fatalf("job %s finished %s (%s)", id, st.State, st.Error)
		}
		if st.CheckpointStage < 1 {
			t.Fatalf("job %s: done job stopped reporting checkpoint_stage: %+v", id, st)
		}
	}
	s.mu.Lock()
	retained := 0
	for _, id := range ids {
		j := s.jobs[id]
		if j.result.Mask != nil {
			retained += len(j.result.Mask.Data)
		}
		if j.checkpoint != nil {
			retained += len(j.checkpoint.Mask.Data)
		}
	}
	clip := s.jobs[ids[0]].spec.ClipSize
	s.mu.Unlock()
	if retained != 0 {
		t.Fatalf("%d finished job records retain %d layout pixels, want none", jobs, retained)
	}
	for _, id := range ids {
		res, _, err := s.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Mask.Data) != clip*clip {
			t.Fatalf("job %s: mask of %d pixels read back, want %d²", id, len(res.Mask.Data), clip)
		}
	}
	if files, err := filepath.Glob(filepath.Join(s.resultDir, "*.mask")); err != nil || len(files) != jobs {
		t.Fatalf("results directory holds %d masks (%v), want %d", len(files), err, jobs)
	}
}

// TestResultMaskWriteFailure: a mask that cannot be written out stays
// in the job's record, bit for bit what the written one reads back as;
// a written mask that is gone answers /mask.pgm with 500, without the
// server's paths, while /result, which never reads the mask, still
// answers.
func TestResultMaskWriteFailure(t *testing.T) {
	s, ts := newTestServer(t, testOpts())
	run := func() string {
		id := postJob(t, ts, smallSpec()).Job.ID
		if st := waitFor(t, ts, id, 60*time.Second, func(st Status) bool { return st.State.Terminal() }); st.State != StateDone {
			t.Fatalf("job %s finished %s (%s)", id, st.State, st.Error)
		}
		return id
	}
	written := run()
	fromDisk, _, err := s.Result(written)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(s.resultDir); err != nil {
		t.Fatal(err)
	}
	kept := run()
	inRecord, _, err := s.Result(kept)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range fromDisk.Mask.Data {
		if math.Float64bits(v) != math.Float64bits(inRecord.Mask.Data[i]) {
			t.Fatalf("pixel %d: %v kept in the record, %v read back from disk", i, inRecord.Mask.Data[i], v)
		}
	}
	if code, body := get(t, ts, "/v1/jobs/"+kept+"/mask.pgm"); code != http.StatusOK {
		t.Fatalf("mask kept in the record: %d %s", code, body)
	}

	if _, _, err := s.Result(written); !errors.Is(err, ErrResultLost) {
		t.Fatalf("Result of a lost mask: %v, want ErrResultLost", err)
	}
	code, body := get(t, ts, "/v1/jobs/"+written+"/mask.pgm")
	if code != http.StatusInternalServerError || strings.Contains(body, s.resultDir) {
		t.Fatalf("lost mask answered %d %q, want 500 without the path", code, body)
	}
	if code, body := get(t, ts, "/v1/jobs/"+written+"/result"); code != http.StatusOK {
		t.Fatalf("/result of a job whose mask is lost: %d %s", code, body)
	}
}

// TestResultsDirUnderStateDir: a durable server keeps its masks under
// its state directory, clears what a killed predecessor left there, and
// removes the directory at Shutdown.
func TestResultsDirUnderStateDir(t *testing.T) {
	opts := testOpts()
	opts.StateDir = t.TempDir()
	stale := filepath.Join(opts.StateDir, "results", "job-1.mask")
	if err := os.MkdirAll(filepath.Dir(stale), 0o700); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stale, []byte("stale"), 0o600); err != nil {
		t.Fatal(err)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.resultDir != filepath.Dir(stale) {
		t.Fatalf("results directory %s, want %s", s.resultDir, filepath.Dir(stale))
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale mask survived New: %v", err)
	}
	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.resultDir); !os.IsNotExist(err) {
		t.Fatalf("results directory after Shutdown: %v", err)
	}
}
