package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"mgsilt/internal/parallel"
)

// setupRepeats is how many times a timed run sets the workload up;
// setup_s is their median. The last set-up is the one the pass runs on.
const setupRepeats = 3

// exactJobs is how many served-sharded jobs are held to the bit-exact
// numbers of an in-process run of the same spec.
const exactJobs = 4

// qualityTolerance is how far a quality metric may sit from
// reference.json before the run counts as incorrect.
const qualityTolerance = 0.01

//go:embed reference.json
var referenceJSON []byte

// options are the knobs of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	toy      bool   // smoke-test scale
	tmp      string // scratch directory for the checkpoint probe
	traceOut string // Chrome trace-event file written by a traced run
	log      io.Writer
}

// result is the line the driver reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runInfo is what a run adds to the provenance block.
type runInfo struct {
	// CalibMS is the host-speed calibration (see calibration): the
	// median of the samples taken before, between and after the ops.
	CalibMS float64        `json:"calib_ms"`
	Ops     int            `json:"ops"`
	Samples map[string]int `json:"samples"` // per timing metric: how many samples its statistic was taken over
	Tail    string         `json:"tail"`    // "p90" or "p50": what clip_p90_s is on this run
}

// pin fixes the process to the load shape of the benchmark: as many
// scheduler threads and pool workers as simulated devices, at most 2.
func pin() int {
	cores := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(cores)
	parallel.SetWorkers(cores)
	return cores
}

// run executes one workload in one mode and returns the result line.
func run(o options) (result, runInfo, error) {
	sh, ok := shapes(o.toy)[o.workload]
	if !ok {
		return result{}, runInfo{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	cores := pin()
	budget := time.Duration(o.seconds * float64(time.Second))
	calib := newCalibration()
	calib.sample()
	var (
		ms   metricSet
		ops  []sample
		info runInfo
		err  error
	)
	switch {
	case o.workload == "served-sharded" && o.trace:
		ms, ops, err = tracedServed(o, sh, cores, budget)
	case o.workload == "served-sharded":
		ms, ops, info, err = timedServed(o, sh, cores, budget)
	case o.trace:
		ms, ops, err = tracedFlow(o, sh, cores, budget)
	default:
		ms, ops, info, err = timedFlow(o, sh, cores, budget, calib.sample)
	}
	calib.sample()
	if err != nil {
		return result{}, info, err
	}

	res := result{Correct: true, Attempted: len(ops)}
	for _, s := range ops {
		if s.Err != nil {
			res.Failed++
			fmt.Fprintf(o.log, "op %d failed: %v\n", s.Index, s.Err)
		}
	}
	info.Ops, info.CalibMS = len(ops), median(calib.samples)
	if res.Failed == res.Attempted || ms == nil {
		return res, info, fmt.Errorf("%d of %d ops failed: nothing to report", res.Failed, res.Attempted)
	}
	names, units := namesOf(endToEnd)
	if o.trace {
		names, units = namesOf(perLayer)
		ms["host.calib_ms"] = median(calib.samples)
		ms["fail_frac"] = float64(res.Failed) / float64(max(res.Attempted, 1))
	} else if !o.toy {
		if err := checkReference(o.workload, ms); err != nil {
			res.Correct = false
			fmt.Fprintf(o.log, "quality check failed: %v\n", err)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	var missing []string
	res.Metrics, missing = ms.render(names, units)
	if len(missing) > 0 {
		return res, info, fmt.Errorf("metrics never measured: %s", strings.Join(missing, ", "))
	}
	printMetrics(o.log, o.workload, names, res.Metrics)
	return res, info, nil
}

// calibration times a fixed loop that shares no code with the program
// under test: 64 triad passes over two half-MiB arrays, about 3 ms.
// The sandbox this benchmark was written on drifts between a faster
// and a slower state some 30 % apart, for minutes at a time and
// without any load of its own. Sampled before the pass and between
// ops, this loop reads 3.6 ms in the fast state and 4.7–5.8 ms in the
// slow one, and across twenty runs its median follows clip_s with
// r = 0.7–0.9 on ours-256 and cells-512 (0.4–0.6 on the other two); a
// pure arithmetic chain did not follow it at all. It over-reacts
// (+55 % where the program slows by 30 %), so it normalises nothing: it
// is recorded beside every run so that a reader, and -compare, can
// tell a slower host from a slower program.
type calibration struct {
	a, b    []float64
	samples []float64 // ms
}

func newCalibration() *calibration {
	c := &calibration{a: make([]float64, 1<<16), b: make([]float64, 1<<16)}
	for i := range c.a {
		c.a[i], c.b[i] = 1, 0.001
	}
	c.sample()
	c.samples = c.samples[:0] // the first touch pays the page faults
	return c
}

// sample times the loop three times.
func (c *calibration) sample() {
	for r := 0; r < 3; r++ {
		t := time.Now()
		for pass := 0; pass < 64; pass++ {
			for i := range c.a {
				c.a[i] = c.a[i]*0.999 + c.b[i]
			}
		}
		c.samples = append(c.samples, float64(time.Since(t))/float64(time.Millisecond))
	}
}

// checkReference holds the panel's quality to the committed numbers.
func checkReference(workload string, ms metricSet) error {
	var ref map[string]map[string]float64
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return fmt.Errorf("reference.json: %w", err)
	}
	want, ok := ref[workload]
	if !ok {
		return fmt.Errorf("reference.json has no entry for %s", workload)
	}
	for _, name := range []string{"l2_px", "pvband_px", "stitch_loss"} {
		got, w := ms[name], want[name]
		if w == 0 || math.Abs(got-w)/w > qualityTolerance {
			return fmt.Errorf("%s = %v, reference %v (tolerance %g)", name, got, w, qualityTolerance)
		}
	}
	return nil
}

// endToEndOf folds a timed pass into the end-to-end metrics.
// primary are the ops clip_s is taken over (the cold passes on
// cells-512, every op elsewhere), warm the warm passes, panel the ops
// the quality means are taken over.
func endToEndOf(setups []float64, ops []sample, panel int, passWall time.Duration) (metricSet, runInfo) {
	var primary, warm, tat []float64
	pixels := 0
	for _, s := range ops {
		if s.Err != nil {
			continue
		}
		pixels += s.Pixels
		if s.Kind == "warm" {
			warm = append(warm, s.Wall)
			continue
		}
		primary = append(primary, s.Wall)
		tat = append(tat, s.TAT)
	}
	var l2, pvb, stitch []float64
	for _, s := range ops {
		if s.Index < panel && s.Kind != "warm" && s.Err == nil {
			l2, pvb, stitch = append(l2, s.L2), append(pvb, s.PVBand), append(stitch, s.Stitch)
		}
	}
	ms := metricSet{
		"setup_s":       median(setups),
		"clip_s":        median(primary),
		"tat_virtual_s": median(tat),
		"mpix_per_s":    float64(pixels) / 1e6 / passWall.Seconds(),
		"l2_px":         mean(l2),
		"pvband_px":     mean(pvb),
		"stitch_loss":   mean(stitch),
		"peak_rss_mb":   peakRSSMiB(),
	}
	info := runInfo{Samples: map[string]int{"setup_s": len(setups), "clip_s": len(primary), "tat_virtual_s": len(tat), "quality": len(l2)}}
	// Every workload reports every metric: without warm passes the warm
	// latency is the op latency.
	ms["warm_clip_s"] = ms["clip_s"]
	info.Samples["warm_clip_s"] = len(primary)
	if len(warm) > 0 {
		ms["warm_clip_s"] = median(warm)
		info.Samples["warm_clip_s"] = len(warm)
	}
	ms["clip_p90_s"], info.Tail = tail(primary)
	info.Samples["clip_p90_s"] = len(primary)
	return ms, info
}

// peakRSSMiB is the high-water resident set of this process (VmHWM):
// one workload per process, so it is the workload's own.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

func printMetrics(w io.Writer, workload string, names []string, ms map[string]value) {
	fmt.Fprintf(w, "\n%s\n", workload)
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for _, n := range sorted {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// timedFlow is a timed run of an in-process workload: repeated
// set-up, then the closed-loop pass with nothing installed.
func timedFlow(o options, sh shape, cores int, budget time.Duration, between func()) (metricSet, []sample, runInfo, error) {
	var (
		b      *flowBench
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		nb, err := setupFlow(o.workload, sh, o.seed, devices(o.workload, cores))
		if err == nil {
			err = nb.warmup()
		}
		if err != nil {
			return nil, nil, runInfo{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		b = nb
	}
	ops, wall := b.pass(budget, between)
	ms, info := endToEndOf(setups, ops, b.minOps(), wall)
	return ms, ops, info, nil
}

// timedServed is a timed run of served-sharded.
func timedServed(o options, sh shape, cores int, budget time.Duration) (metricSet, []sample, runInfo, error) {
	var (
		b      *servedBench
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			b.close()
		}
		t := time.Now()
		nb, err := setupServed(sh, o.seed, devices(o.workload, cores))
		if err == nil {
			if err = nb.warmup(); err != nil {
				nb.close()
			}
		}
		if err != nil {
			return nil, nil, runInfo{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		b = nb
	}
	defer b.close()
	jobs, wall := b.pass(budget, sh.MinOps, nil)
	if err := b.verify(jobs, exactJobs); err != nil {
		return nil, nil, runInfo{}, err
	}
	ops := samplesOf(jobs)
	ms, info := endToEndOf(setups, ops, sh.Panel, wall)
	return ms, ops, info, nil
}

func samplesOf(jobs []servedJob) []sample {
	ops := make([]sample, len(jobs))
	for i, j := range jobs {
		ops[i] = j.sample
	}
	return ops
}
