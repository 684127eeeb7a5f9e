package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"sort"
	"strings"

	"mgsilt/internal/parallel"
)

// provenance says what produced a record. -compare refuses two files
// whose provenance differs in anything but Git and the per-run
// counts: numbers from different toolchains, core counts or optics do
// not bound each other.
type provenance struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	PoolWidth  int     `json:"pool_width"`
	Seconds    float64 `json:"seconds"`
	Kernels    string  `json:"kernels"` // litho kernel provenance of the workload's optics
	Git        string  `json:"git_describe"`
}

// record is one run in a -record file (one JSON object per line).
type record struct {
	Provenance provenance `json:"provenance"`
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Trace      bool       `json:"trace"`
	Run        runInfo    `json:"run"`
	Result     result     `json:"result"`
}

func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown" // not a git checkout, or no git: the driver's case
	}
	return strings.TrimSpace(string(out))
}

func appendRecord(path string, o options, info runInfo, res result) error {
	rec := record{
		Provenance: provenance{
			GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			PoolWidth: parallel.Workers(), Seconds: o.seconds,
			Kernels: shapes(o.toy)[o.workload].kernelProvenance(), Git: gitDescribe(),
		},
		Workload: o.workload, Seed: o.seed, Trace: o.trace, Run: info, Result: res,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !r.Trace { // bounds exist for end-to-end metrics only
			recs = append(recs, r)
		}
	}
	return recs, sc.Err()
}

// hostDrift is how far the host calibration may move between two files
// before -compare points it out.
const hostDrift = 0.05

// runSet is the timed runs of one file, keyed by workload.
type runSet struct {
	prov   map[string]provenance
	calib  map[string][]float64
	seeds  map[string][]int64
	values map[string]map[string][]float64 // workload → metric → one value per run
}

func groupRuns(recs []record) (runSet, error) {
	s := runSet{prov: map[string]provenance{}, calib: map[string][]float64{}, seeds: map[string][]int64{}, values: map[string]map[string][]float64{}}
	for _, r := range recs {
		p := r.Provenance
		p.Git = ""
		if old, ok := s.prov[r.Workload]; ok && old != p {
			return s, fmt.Errorf("runs of %s within one file differ in provenance: %+v vs %+v", r.Workload, old, p)
		}
		s.prov[r.Workload] = p
		s.seeds[r.Workload] = append(s.seeds[r.Workload], r.Seed)
		s.calib[r.Workload] = append(s.calib[r.Workload], r.Run.CalibMS)
		if s.values[r.Workload] == nil {
			s.values[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Result.Metrics {
			s.values[r.Workload][name] = append(s.values[r.Workload][name], v.Value)
		}
	}
	for _, seeds := range s.seeds {
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	}
	return s, nil
}

// compareFiles prints, for every end-to-end metric on every workload,
// both medians, the bound and a verdict, and reports whether any
// metric regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	ra, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	rb, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	a, err := groupRuns(ra)
	if err != nil {
		return false, err
	}
	b, err := groupRuns(rb)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-15s %-14s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "a.median", "b.median", "worse", "bound", "spread", "verdict")
	for _, wl := range workloadDecls {
		va, vb := a.values[wl.Name], b.values[wl.Name]
		if va == nil || vb == nil {
			return false, fmt.Errorf("%s: missing from one of the files", wl.Name)
		}
		if a.prov[wl.Name] != b.prov[wl.Name] {
			return false, fmt.Errorf("%s: provenance differs, refusing to compare:\n  a: %+v\n  b: %+v", wl.Name, a.prov[wl.Name], b.prov[wl.Name])
		}
		if !reflect.DeepEqual(a.seeds[wl.Name], b.seeds[wl.Name]) {
			return false, fmt.Errorf("%s: seeds differ, refusing to compare: %v vs %v", wl.Name, a.seeds[wl.Name], b.seeds[wl.Name])
		}
		if ca, cb := median(a.calib[wl.Name]), median(b.calib[wl.Name]); ca > 0 && math.Abs(cb-ca)/ca > hostDrift {
			fmt.Fprintf(w, "%-15s host calibration moved %+.1f%% between the files (%.2f ms vs %.2f ms): the host, not the program, may explain the timing rows below\n",
				wl.Name, 100*(cb-ca)/ca, ca, cb)
		}
		for _, d := range endToEnd {
			xa, xb := va[d.Name], vb[d.Name]
			worse, v := verdict(xa, xb, d.Better == lower, d.Bound)
			if v == verdictRegressed {
				regressed = true
			}
			fmt.Fprintf(w, "%-15s %-14s %12.6g %12.6g %+7.1f%% %6.0f%% %6.1f%%  %s\n",
				wl.Name, d.Name, median(xa), median(xb), 100*worse, 100*d.Bound,
				100*max(quartileSpread(xa), quartileSpread(xb)), v)
		}
	}
	return regressed, nil
}

// runSuite runs every workload at seeds 1..n, one child process per
// run so peak_rss_mb is each run's own, appending to the record file.
func runSuite(n int, o options, trace int, recordPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for seed := 1; seed <= n; seed++ {
		for _, wl := range workloadDecls {
			args := []string{
				"--workload", wl.Name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(o.seconds),
				"--trace", fmt.Sprint(trace), "-record", recordPath,
			}
			if o.toy {
				args = append(args, "-toy")
			}
			if o.tmp != "" {
				args = append(args, "-tmp", o.tmp)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, io.Discard
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.Name, seed, err)
			}
		}
	}
	return nil
}
