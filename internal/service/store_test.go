package service

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mgsilt/internal/core"
	"mgsilt/internal/opt"
)

func metricsBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Resuming a job that is still queued or running must 409 without
// double-scheduling it: the job keeps running undisturbed, its attempt
// counter untouched, and a later resume of the terminal job works.
func TestResumeRunningConflict(t *testing.T) {
	opts := testOpts()
	opts.Workers = 1
	_, ts := newTestServer(t, opts)

	running := postJob(t, ts, longSpec())
	waitFor(t, ts, running.Job.ID, 30*time.Second, func(st Status) bool {
		return st.State == StateRunning
	})
	queued := postJob(t, ts, smallSpec())

	// Resume on a running job: 409, no state change, no extra attempt.
	if code, _ := postResume(t, ts, running.Job.ID); code != http.StatusConflict {
		t.Fatalf("resume of running job: %d, want 409", code)
	}
	st := getStatus(t, ts, running.Job.ID)
	if st.State != StateRunning || st.Attempts != 1 {
		t.Fatalf("running job disturbed by rejected resume: state=%s attempts=%d", st.State, st.Attempts)
	}

	// Resume on a queued job: same conflict.
	if code, _ := postResume(t, ts, queued.Job.ID); code != http.StatusConflict {
		t.Fatalf("resume of queued job: %d, want 409", code)
	}

	// The job was never double-scheduled: cancel it and require exactly
	// one attempt on the terminal record.
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+running.Job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	st = waitFor(t, ts, running.Job.ID, 30*time.Second, func(st Status) bool {
		return st.State == StateCancelled
	})
	if st.Attempts != 1 {
		t.Fatalf("cancelled job has %d attempts, want 1 (a rejected resume must not re-run it)", st.Attempts)
	}

	// A genuine resume of the now-terminal job is still accepted.
	if code, _ := postResume(t, ts, running.Job.ID); code != http.StatusAccepted {
		t.Fatalf("resume of cancelled job: %d, want 202", code)
	}
	waitFor(t, ts, running.Job.ID, 30*time.Second, func(st Status) bool {
		return st.Attempts == 2
	})
}

// A journal directory left behind by a killed server — queued and
// running jobs plus a finished one — must be replayed on startup: the
// non-terminal jobs re-enter the queue and run to completion, the
// terminal job reappears as history, and ilt_jobs_recovered_total
// counts the requeues. A queued job whose flow this build no longer
// serves (an older server's "select") is marked failed, not run.
func TestRecoveryCompletesJournalledJobs(t *testing.T) {
	dir := t.TempDir()
	st, err := openJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	records := []jobRecord{
		{ID: "j000001", Spec: smallSpec(), State: StateQueued, Created: now},
		{ID: "j000002", Spec: JobSpec{Flow: "dc", N: 32, Iters: 4, Seed: 2},
			State: StateRunning, Attempts: 1, Created: now, Started: now},
		{ID: "j000003", Spec: smallSpec(), State: StateDone, Attempts: 1,
			Created: now, Started: now, Finished: now},
		{ID: "j000004", Spec: JobSpec{Flow: "select", N: 32, Iters: 3}, State: StateQueued, Created: now},
	}
	for _, rec := range records {
		if err := st.saveRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Journal noise a crash can leave behind: all must be skipped.
	writeJunk(t, dir)

	opts := testOpts()
	opts.StateDir = dir
	_, ts := newTestServer(t, opts)

	// The interrupted jobs complete end to end.
	for _, id := range []string{"j000001", "j000002"} {
		st := waitFor(t, ts, id, 60*time.Second, func(st Status) bool {
			return st.State.Terminal()
		})
		if st.State != StateDone {
			t.Fatalf("recovered job %s finished as %s (%s), want done", id, st.State, st.Error)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result of recovered job %s: %d", id, resp.StatusCode)
		}
	}

	// The finished job is history without a result payload.
	if st := getStatus(t, ts, "j000003"); st.State != StateDone {
		t.Fatalf("terminal job recovered as %s", st.State)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/j000003/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of history-only job: %d, want 409", resp.StatusCode)
	}

	// The job of a flow that no longer exists failed at replay.
	if st := getStatus(t, ts, "j000004"); st.State != StateFailed || !strings.Contains(st.Error, `unknown flow "select"`) {
		t.Fatalf("journalled select job recovered as %s (%q), want failed on its flow", st.State, st.Error)
	}

	// Only the two runnable non-terminal jobs count as recovered.
	if m := metricsBody(t, ts.URL); !strings.Contains(m, "ilt_jobs_recovered_total 2") {
		t.Fatalf("metrics missing recovered counter:\n%s", m)
	}

	// New submissions continue the id sequence past the journal.
	if sr := postJob(t, ts, smallSpec()); sr.Job.ID != "j000005" {
		t.Fatalf("post-recovery submit got id %s, want j000005", sr.Job.ID)
	}
}

// A running job journalled by an older build whose spec names a knob
// this build dropped (testdata/budget.job: a per-stage kernel budget)
// must replay as failed with an error naming the field. Decoded
// leniently it would restart without the knob, and its checkpoint,
// taken under that knob, would silently fail to load. A spec naming a
// retired solver (admm, curvy) fails the same way, on the solver name,
// and so does one naming a flow core.Flow does not know.
func TestRecoveryFailsRecordWithRetiredField(t *testing.T) {
	budget, err := os.ReadFile(filepath.Join("testdata", "budget.job"))
	if err != nil {
		t.Fatal(err)
	}
	running := func(spec string) []byte {
		return []byte(jobMagic + "\n" + `{"id":"j000001","spec":{` + spec +
			`},"state":"running","attempts":1,"created_at":"2026-10-01T12:00:00Z","started_at":"2026-10-01T12:00:00Z","finished_at":"0001-01-01T00:00:00Z"}` + "\n")
	}
	for _, tc := range []struct {
		name    string
		record  []byte
		wantErr string
	}{
		{"kernel budget", budget, "unknown field"},
		{"admm solver", running(`"flow":"mgs","n":32,"iters":8,"solver":"admm"`), opt.ErrUnknownSolver.Error()},
		{"curvy solver", running(`"flow":"mgs","n":32,"iters":8,"solver":"curvy"`), opt.ErrUnknownSolver.Error()},
		{"unknown flow", running(`"flow":"ours","n":32,"iters":8`), core.ErrUnknownFlow.Error()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "j000001.job"), tc.record, 0o644); err != nil {
				t.Fatal(err)
			}
			opts := testOpts()
			opts.StateDir = dir
			_, ts := newTestServer(t, opts)

			st := getStatus(t, ts, "j000001")
			if st.State != StateFailed || !strings.Contains(st.Error, tc.wantErr) {
				t.Fatalf("journalled job recovered as %s (%q), want failed with %q", st.State, st.Error, tc.wantErr)
			}
			if m := metricsBody(t, ts.URL); !strings.Contains(m, "ilt_jobs_recovered_total 0") {
				t.Fatalf("a failed replay must not count as recovered:\n%s", m)
			}
			// The failure is journalled: a second restart keeps it as history.
			data, err := os.ReadFile(filepath.Join(dir, "j000001.job"))
			if err != nil {
				t.Fatal(err)
			}
			if rec, err := parseJobRecord(data); err != nil || rec.State != StateFailed || rec.Error != st.Error {
				t.Fatalf("journal after replay: %+v, %v", rec, err)
			}
		})
	}
}

// A server that shut down cleanly leaves a journal of terminal states;
// a restart serves them as history and keeps accepting work.
func TestRestartPreservesTerminalHistory(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.StateDir = dir

	s1, ts1 := newTestServer(t, opts)
	sr := postJob(t, ts1, smallSpec())
	waitFor(t, ts1, sr.Job.ID, 60*time.Second, func(st Status) bool {
		return st.State == StateDone
	})
	ts1.Close()
	if err := s1.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, opts)
	st := getStatus(t, ts2, sr.Job.ID)
	if st.State != StateDone || st.Attempts != 1 {
		t.Fatalf("restarted server lost terminal state: %+v", st)
	}
	if m := metricsBody(t, ts2.URL); !strings.Contains(m, "ilt_jobs_recovered_total 0") {
		t.Fatalf("terminal-only journal must not count as recovered")
	}
}

// writeJunk drops corrupt and foreign files into a journal directory.
func writeJunk(t *testing.T, dir string) {
	t.Helper()
	junk := map[string]string{
		"j000009.job":     "not a job record",
		"evil.job":        jobMagic + "\n" + `{"id":"../escape","spec":{"flow":"mgs"},"state":"queued"}` + "\n",
		"mismatch.job":    jobMagic + "\n" + `{"id":"j000008","spec":{"flow":"mgs"},"state":"queued"}` + "\n",
		"j000007.ckpt":    "torn checkpoint bytes",
		"README.txt":      "unrelated",
		"j000005.job.tmp": "abandoned temp file",
	}
	for name, data := range junk {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// The shared tile cache turns identical jobs into cache hits: the
// second submission of the same spec short-circuits its tile solves,
// visible in /metrics, with bit-identical results.
func TestSharedCacheAcrossJobs(t *testing.T) {
	opts := testOpts()
	opts.CacheBytes = 64 << 20
	_, ts := newTestServer(t, opts)

	spec := JobSpec{Flow: "dc", N: 32, Iters: 4}
	first := postJob(t, ts, spec)
	waitFor(t, ts, first.Job.ID, 60*time.Second, func(st Status) bool {
		return st.State == StateDone
	})
	second := postJob(t, ts, spec)
	waitFor(t, ts, second.Job.ID, 60*time.Second, func(st Status) bool {
		return st.State == StateDone
	})

	m := metricsBody(t, ts.URL)
	if !strings.Contains(m, `ilt_cache_hits_total{tier="ram"}`) {
		t.Fatalf("metrics missing cache families:\n%s", m)
	}
	var ram int
	for _, line := range strings.Split(m, "\n") {
		if strings.HasPrefix(line, `ilt_cache_hits_total{tier="ram"}`) {
			if _, err := fmt.Sscanf(line, `ilt_cache_hits_total{tier="ram"} %d`, &ram); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
		}
	}
	if ram == 0 {
		t.Fatalf("second identical job produced no RAM cache hits:\n%s", m)
	}

	// Bit-identity across jobs: both results serve the same mask bytes.
	if a, b := fetchMask(t, ts, first.Job.ID), fetchMask(t, ts, second.Job.ID); string(a) != string(b) {
		t.Fatalf("cached job produced a different mask")
	}
}

// FuzzJobStore hardens the journal parser: arbitrary bytes must parse
// or fail cleanly, never panic, and every accepted record must satisfy
// the structural invariants load() depends on.
func FuzzJobStore(f *testing.F) {
	good, err := encodeJobRecord(jobRecord{
		ID: "j000001", Spec: smallSpec(), State: StateQueued, Created: time.Now(),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(jobMagic + "\n"))
	f.Add([]byte(jobMagic + "\n{}"))
	f.Add([]byte(jobMagic + "\n" + `{"id":"j000002","state":"running","attempts":1}`))
	f.Add([]byte(jobMagic + "\n" + `{"id":"../../etc/passwd","state":"queued"}`))
	f.Add([]byte(jobMagic + "\n" + `{"id":"j000003","state":"sideways"}`))
	f.Add([]byte("mgsilt-checkpoint v1\nwrong format"))
	f.Add([]byte{})
	if data, err := os.ReadFile(filepath.Join("testdata", "budget.job")); err == nil {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := parseJobRecord(data)
		if err != nil {
			return
		}
		if err := validateJobRecord(rec); err != nil {
			t.Fatalf("parse accepted a record validate rejects: %v", err)
		}
		if n, err := jobIDNum(rec.ID); err != nil || n < 1 {
			t.Fatalf("parse accepted unusable id %q", rec.ID)
		}
		// An accepted record must round-trip through the encoder.
		if _, err := encodeJobRecord(rec); err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
	})
}
