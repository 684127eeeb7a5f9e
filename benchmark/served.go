package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mgsilt/internal/core"
	"mgsilt/internal/device"
	"mgsilt/internal/grid"
	"mgsilt/internal/layout"
	"mgsilt/internal/litho"
	"mgsilt/internal/metrics"
	"mgsilt/internal/report"
	"mgsilt/internal/service"
	"mgsilt/internal/shard"
)

// pollEvery is the status-poll interval of a benchmark client.
const pollEvery = 2 * time.Millisecond

// servedBench is the served-sharded workload: the job service behind
// an HTTP listener, its tile fan-out sharded over two workers behind
// their own listeners, all in this process on loopback.
type servedBench struct {
	sh      shape
	seed    int64
	clients int
	sim     *litho.Simulator // the benchmark's own optics, for verification only

	workers []*httptest.Server
	srv     *service.Server
	front   *httptest.Server
	http    *http.Client
}

func setupServed(sh shape, seed int64, clients int) (*servedBench, error) {
	b := &servedBench{sh: sh, seed: seed, clients: clients, http: &http.Client{Timeout: 2 * time.Minute}}
	for i := 0; i < 2; i++ {
		w, err := shard.NewWorker(shard.WorkerOptions{})
		if err != nil {
			b.close()
			return nil, err
		}
		ts := httptest.NewServer(w.Handler())
		b.workers = append(b.workers, ts)
	}
	srv, err := service.New(service.Options{Workers: clients, ShardWorkers: b.workerURLs(), MaxN: 256})
	if err != nil {
		b.close()
		return nil, err
	}
	b.srv = srv
	b.front = httptest.NewServer(srv.Handler())
	return b, nil
}

func (b *servedBench) close() {
	if b.front != nil {
		b.front.Close()
	}
	if b.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = b.srv.Shutdown(ctx) // best effort: the process is about to exit or rebuild
		cancel()
	}
	for _, w := range b.workers {
		w.Close()
	}
}

// spec is job i of a pass. The service draws the clip from Seed, so
// the JobSpec is the whole generated input.
func (b *servedBench) spec(i int) service.JobSpec {
	stages, fine := 4, 8
	return service.JobSpec{
		Flow: "mgs", N: b.sh.N, ClipSize: b.sh.Clip, Seed: inputSeed(b.sh, b.seed, i),
		Iters: b.sh.Iters, FineStages: &stages, FineIters: &fine,
	}
}

// warmup pushes one throw-away job through the whole path, so the
// service's and both workers' optics are built and their FFT plans
// and pools filled.
func (b *servedBench) warmup() error {
	spec := b.spec(0)
	spec.Seed = panelSeed - 1
	j := b.runJob(-1, spec, nil)
	return j.Err
}

// jobTrace is the client-side timing of one job (traced pass only).
type jobTrace struct {
	start          time.Time
	submit, result time.Duration
	polls          []time.Duration
	status         service.Status
}

type servedJob struct {
	sample
	id string
}

type submitReply struct {
	Job service.Status `json:"job"`
}

type resultReply struct {
	Metrics report.Metrics `json:"metrics"`
}

// runJob is one op: submit, poll until terminal, fetch the result. Any
// refusal or failure is the op's error.
func (b *servedBench) runJob(i int, spec service.JobSpec, tr *jobTrace) (j servedJob) {
	j = servedJob{sample: sample{Index: i, Pixels: b.sh.Clip * b.sh.Clip}}
	start := time.Now()
	if tr != nil {
		tr.start = start
	}
	defer func() { j.Wall = time.Since(start).Seconds() }()

	body, err := json.Marshal(spec)
	if err != nil {
		j.Err = err
		return j
	}
	var sub submitReply
	t := time.Now()
	code, err := b.call(http.MethodPost, "/v1/jobs", body, &sub)
	if tr != nil {
		tr.submit = time.Since(t)
	}
	if err != nil || code != http.StatusAccepted {
		j.Err = fmt.Errorf("submit: status %d: %v", code, err)
		return j
	}
	j.id = sub.Job.ID

	var st service.Status
	for {
		t := time.Now()
		code, err := b.call(http.MethodGet, "/v1/jobs/"+j.id, nil, &st)
		if tr != nil {
			tr.polls = append(tr.polls, time.Since(t))
		}
		if err != nil || code != http.StatusOK {
			j.Err = fmt.Errorf("status: %d: %v", code, err)
			return j
		}
		if st.State.Terminal() {
			break
		}
		time.Sleep(pollEvery)
	}
	if tr != nil {
		tr.status = st
	}
	if st.State != service.StateDone {
		j.Err = fmt.Errorf("job %s ended %s: %s", j.id, st.State, st.Error)
		return j
	}

	var res resultReply
	t = time.Now()
	code, err = b.call(http.MethodGet, "/v1/jobs/"+j.id+"/result", nil, &res)
	if tr != nil {
		tr.result = time.Since(t)
	}
	if err != nil || code != http.StatusOK {
		j.Err = fmt.Errorf("result: %d: %v", code, err)
		return j
	}
	j.L2, j.PVBand, j.Stitch, j.TAT = res.Metrics.L2, res.Metrics.PVBand, res.Metrics.Stitch, res.Metrics.TATSec
	return j
}

func (b *servedBench) call(method, path string, body []byte, into any) (int, error) {
	req, err := http.NewRequest(method, b.front.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := b.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("%s", bytes.TrimSpace(raw))
	}
	return resp.StatusCode, json.Unmarshal(raw, into)
}

// pass runs the closed loop: `clients` clients, each submitting its
// next job when its previous one has returned its result. Job indices
// are handed out in order, so job i is the same job in every run. The
// pass runs at least minOps jobs and stops handing out jobs once one
// more would end after the budget. trace, when non-nil, receives the
// client-side timing of every job.
func (b *servedBench) pass(budget time.Duration, minOps int, trace func(i int, j servedJob, tr *jobTrace)) ([]servedJob, time.Duration) {
	var (
		next  atomic.Int64
		lastW atomic.Int64 // latest op latency, ns
		mu    sync.Mutex
		jobs  []servedJob
		wg    sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= b.sh.Jobs || (i >= minOps && time.Since(start)+time.Duration(lastW.Load()) > budget) {
					return
				}
				var tr *jobTrace
				if trace != nil {
					tr = &jobTrace{}
				}
				j := b.runJob(i, b.spec(i), tr)
				lastW.Store(int64(j.Wall * float64(time.Second)))
				if trace != nil {
					trace(i, j, tr)
				}
				mu.Lock()
				jobs = append(jobs, j)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	sort.Slice(jobs, func(x, y int) bool { return jobs[x].Index < jobs[y].Index })
	return jobs, wall
}

// verify checks every job's mask (fetched from the in-process server,
// untimed) like any other op, and holds the first `exact` jobs to the
// numbers of an in-process core.MultigridSchwarz of the same spec:
// sharding and serving must not change a single bit of the result.
func (b *servedBench) verify(jobs []servedJob, exact int) error {
	if err := b.optics(); err != nil {
		return err
	}
	for k := range jobs {
		j := &jobs[k]
		if j.Err != nil {
			continue
		}
		res, _, err := b.srv.Result(j.id)
		if err != nil {
			j.Err = fmt.Errorf("result of %s: %w", j.id, err)
			continue
		}
		spec := b.spec(j.Index)
		target, err := b.clip(spec)
		if err != nil {
			return err
		}
		if err := checkMask(res.Mask, j.L2, metrics.L2(b.sim, target, target)); err != nil {
			j.Err = err
			continue
		}
		if k < exact {
			ref, err := b.reference(spec, target)
			if err != nil {
				return err
			}
			if ref.L2 != j.L2 || ref.PVBand != j.PVBand || ref.StitchLoss != j.Stitch {
				j.Err = fmt.Errorf("served job %d reports L2/PVB/stitch %v/%v/%v, in-process run %v/%v/%v",
					j.Index, j.L2, j.PVBand, j.Stitch, ref.L2, ref.PVBand, ref.StitchLoss)
			}
		}
	}
	return nil
}

// optics builds the benchmark's own simulator on first use.
func (b *servedBench) optics() (err error) {
	if b.sim == nil {
		b.sim, err = newSim(b.sh.N)
	}
	return err
}

// flowConfig is the configuration the service derives from a spec
// (service.execute), minus its backends and hooks.
func (b *servedBench) flowConfig(sim *litho.Simulator, spec service.JobSpec) (core.Config, error) {
	cfg := core.DefaultConfig(sim, spec.ClipSize, spec.Iters)
	cfg.FineStages, cfg.FineIters = *spec.FineStages, *spec.FineIters
	cl, err := device.NewCluster(1, 0)
	cfg.Cluster = cl
	return cfg, err
}

func (b *servedBench) reference(spec service.JobSpec, target *grid.Mat) (*core.Result, error) {
	cfg, err := b.flowConfig(b.sim, spec)
	if err != nil {
		return nil, err
	}
	return core.MultigridSchwarz(cfg, target)
}

// clip draws the clip the service draws for spec.
func (b *servedBench) clip(spec service.JobSpec) (*grid.Mat, error) {
	c, err := layout.Generate(layout.DefaultConfig(spec.ClipSize, spec.Seed))
	if err != nil {
		return nil, err
	}
	return c.Target, nil
}

// workerBusy reads the workers' /v1/shard/timeline and sums the wall
// time of the solve batches whose session carries the given run-id
// prefix: the busiest worker's total and all workers' together.
func (b *servedBench) workerBusy(prefix string) (busiest, all time.Duration, err error) {
	for _, w := range b.workers {
		resp, err := b.http.Get(w.URL + "/v1/shard/timeline")
		if err != nil {
			return 0, 0, err
		}
		var recs []shard.BatchRecord
		err = json.NewDecoder(resp.Body).Decode(&recs)
		resp.Body.Close()
		if err != nil {
			return 0, 0, fmt.Errorf("worker timeline: %w", err)
		}
		var mine time.Duration
		for _, r := range recs {
			if strings.HasPrefix(r.Session, prefix) {
				mine += time.Duration(r.WallMS * float64(time.Millisecond))
			}
		}
		all += mine
		busiest = max(busiest, mine)
	}
	return busiest, all, nil
}

func (b *servedBench) workerURLs() []string {
	urls := make([]string, len(b.workers))
	for i, w := range b.workers {
		urls[i] = w.URL
	}
	return urls
}
