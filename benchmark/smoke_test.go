package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The catalogue must satisfy the contract BENCHMARK.json is judged by:
// the file is refused before a single run otherwise.
func TestCatalogueMeetsContract(t *testing.T) {
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not a valid name", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDecls); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadDecls {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, d := range endToEnd {
		name("end-to-end", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == lower
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must carry the largest bound, %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range perLayer {
		name("per-layer", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d", runSeconds)
	}
}

// BENCHMARK.json at the repository root is -manifest output.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it with `bash benchmark/run.sh -manifest > BENCHMARK.json`")
	}
	if len(got) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(got))
	}
}

// The smoke runs every workload in both modes at toy scale and checks
// that each run prints every declared metric exactly once, with its
// unit, and nothing else — the names are normative.
func TestSmokeAllWorkloads(t *testing.T) {
	probeCalls = 2
	defer func() { probeCalls = 20 }()
	tmp := t.TempDir()
	for _, w := range workloadDecls {
		for _, trace := range []bool{false, true} {
			o := options{workload: w.Name, seed: 1, seconds: 0.2, trace: trace, toy: true, tmp: tmp, log: io.Discard}
			if trace {
				o.traceOut = filepath.Join(tmp, w.Name+".trace.json")
			}
			start := time.Now()
			res, info, err := run(o)
			t.Logf("%s trace=%v: %d ops in %.1f s", w.Name, trace, res.Attempted, time.Since(start).Seconds())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			names, units := namesOf(endToEnd)
			if trace {
				names, units = namesOf(perLayer)
			}
			if len(res.Metrics) != len(names) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(names))
			}
			for _, n := range names {
				v, ok := res.Metrics[n]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, n)
				} else if v.Unit != units[n] {
					t.Errorf("%s: %s has unit %q, want %q", w.Name, n, v.Unit, units[n])
				}
			}
			// The result line must be plain JSON: no NaN, no Inf.
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("%s trace=%v: result does not serialise: %v", w.Name, trace, err)
			}
			var back result
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatal(err)
			}
			if !trace {
				for _, d := range endToEnd {
					if res.Metrics[d.Name].Value == 0 && !strings.HasSuffix(d.Name, "stitch_loss") {
						t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
					}
				}
				if info.Samples["clip_s"] < 1 {
					t.Errorf("%s: no clip_s samples recorded", w.Name)
				}
			} else {
				checkTraceFile(t, o.traceOut)
				checkLayerSeparation(t, w.Name, res.Metrics)
			}
		}
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Errorf("%s holds no spans", path)
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("%s: bad event %+v", path, e)
		}
	}
}

// Workloads exist to stress different layers: the layers a workload
// bypasses must show no work at all.
func checkLayerSeparation(t *testing.T, workload string, ms map[string]value) {
	t.Helper()
	zero := func(names ...string) {
		for _, n := range names {
			if ms[n].Value != 0 {
				t.Errorf("%s: %s = %v, want 0 (the workload bypasses that layer)", workload, n, ms[n].Value)
			}
		}
	}
	positive := func(names ...string) {
		for _, n := range names {
			if !(ms[n].Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", workload, n, ms[n].Value)
			}
		}
	}
	positive("core.stage_s.fine", "core.stage_s.inspect", "device.jobs", "opt.solve_calls", "litho.kernels_evaluated_per_clip")
	switch workload {
	case "ours-256", "manytile-512":
		zero("cache.hits", "cache.misses", "sched.requests", "shard.round_s", "shard.halo_bytes", "service.run_s", "service.polls_per_job")
	case "cells-512":
		positive("cache.hits", "cache.misses", "sched.requests")
		zero("shard.round_s", "service.run_s")
		if ms["cache.hit_rate_warm"].Value != 1 {
			t.Errorf("cells-512: warm hit rate %v, want 1", ms["cache.hit_rate_warm"].Value)
		}
	case "served-sharded":
		positive("shard.round_s", "shard.worker_busy_s", "shard.halo_bytes", "shard.full_bytes", "service.run_s", "service.polls_per_job", "service.submit_ms")
		zero("cache.hits", "cache.misses", "sched.requests")
	}
	if workload == "manytile-512" {
		positive("core.stage_s.coarse_correct")
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	names, units := namesOf(endToEnd)
	write := func(file string, scale map[string]float64, goVersion string) string {
		path := filepath.Join(dir, file)
		for seed := int64(1); seed <= 4; seed++ {
			for _, w := range workloadDecls {
				ms := metricSet{}
				for _, n := range names {
					ms[n] = 100 * (1 + 0.001*float64(seed))
					if s, ok := scale[n]; ok {
						ms[n] *= s
					}
				}
				vals, _ := ms.render(names, units)
				rec := record{
					Provenance: provenance{GoVersion: goVersion, GOMAXPROCS: 2, NumCPU: 2, PoolWidth: 2, Seconds: 20, Kernels: "k", Git: file},
					Workload:   w.Name, Seed: seed, Result: result{Correct: true, Attempted: 1, Metrics: vals},
				}
				line, err := json.Marshal(rec)
				if err != nil {
					t.Fatal(err)
				}
				f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				f.Write(append(line, '\n'))
				f.Close()
			}
		}
		return path
	}
	base := write("a.jsonl", nil, "go1")
	same := write("b.jsonl", nil, "go1")
	slow := write("c.jsonl", map[string]float64{"clip_s": 1.4, "mpix_per_s": 1.5}, "go1")
	other := write("d.jsonl", nil, "go2")

	var out bytes.Buffer
	regressed, err := compareFiles(&out, base, same)
	if err != nil || regressed {
		t.Fatalf("A/A: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if strings.Contains(out.String(), verdictRegressed) || strings.Contains(out.String(), verdictUnresolved) {
		t.Errorf("A/A comparison is not clean:\n%s", out.String())
	}
	if got := strings.Count(out.String(), "\n"); got != 1+len(workloadDecls)*len(endToEnd) {
		t.Errorf("%d lines, want a header and one line per metric and workload", got)
	}
	out.Reset()
	regressed, err = compareFiles(&out, base, slow)
	if err != nil || !regressed {
		t.Fatalf("40%% slower clip_s: regressed=%v err=%v", regressed, err)
	}
	if got := strings.Count(out.String(), verdictRegressed); got != len(workloadDecls) {
		t.Errorf("%d regressed lines, want one per workload (clip_s; a higher mpix_per_s is not worse):\n%s", got, out.String())
	}
	if _, err := compareFiles(io.Discard, base, other); err == nil || !strings.Contains(err.Error(), "provenance") {
		t.Errorf("different toolchains compared without complaint: %v", err)
	}
}
