// Package benchfmt defines the machine-readable benchmark trajectory
// document written by `cmd/iltbench -json` and consumed by
// `cmd/benchdiff` — the contract behind the bench-regression CI gate.
//
// A Doc carries three groups of data:
//
//   - Provenance: experiment scale, kernel-set description, compute
//     pool width, and the git describe string of the producing tree.
//     benchdiff refuses to compare documents whose provenance differs,
//     so the gate can never diff incomparable runs (different scales,
//     optics, or worker counts).
//   - Calibration: CalibNS is the wall time of a fixed, self-contained
//     floating-point reference workload measured by the producing
//     host (see Calibrate). Dividing measured TATs by it removes the
//     host's raw CPU speed from the comparison, which is what makes a
//     committed baseline meaningful on a differently-sized CI runner.
//     The calibration loop deliberately shares no code with the
//     repository's hot paths: optimising the FFT must show up as a
//     TAT improvement, not vanish into the denominator.
//   - Experiments: per-method metric groups (the Table 1 columns) and
//     raw rendered tables for any experiment.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"mgsilt/internal/report"
)

// Method is one method's metric group within an experiment: the
// Table 1 columns plus the row normalised against "Ours".
type Method struct {
	Name    string         `json:"name"`
	Metrics report.Metrics `json:"metrics"`
	Ratio   report.Metrics `json:"ratio"`
}

// Experiment captures one experiment's output: structured per-method
// metrics when the experiment produces them (table1) and the raw table
// (headers + rows) always, so perf-trajectory tooling can diff any
// experiment across PRs.
type Experiment struct {
	Name    string     `json:"experiment"`
	Methods []Method   `json:"methods,omitempty"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// Doc is the trajectory document (BENCH_*.json).
type Doc struct {
	GeneratedAt string `json:"generated_at"`
	Scale       string `json:"scale"`
	N           int    `json:"n"`
	Clip        int    `json:"clip"`
	Cases       int    `json:"cases"`
	Iters       int    `json:"iters"`
	// Workers is the compute pool width the run used (kernel-level
	// convolution and FFT fan-out). TATs at different widths are not
	// comparable, so benchdiff treats a mismatch as incomparable.
	Workers int `json:"workers"`
	// Kernels is the kernel-set provenance string (optics geometry +
	// defocus); runs on different optics exercise different work.
	Kernels string `json:"kernels"`
	// GitDescribe identifies the producing tree (git describe
	// --always --dirty), recorded for artifact forensics only.
	GitDescribe string `json:"git_describe,omitempty"`
	// CalibNS is the host calibration measurement (see Calibrate);
	// 0 means the producer did not calibrate and only absolute TAT
	// comparison is possible.
	CalibNS int64 `json:"calib_ns,omitempty"`
	// LossGradAllocs is the steady-state heap allocations per serial
	// LossGrad evaluation on the producing host (pools warm, workers
	// pinned to 1). It is a pointer so the field is tri-state: nil means
	// the producer predates the measurement (older documents stay
	// valid), while a recorded 0 — the engine's target — survives
	// marshalling. Unlike TAT it needs no host calibration: allocation
	// counts are deterministic per code version.
	LossGradAllocs *float64 `json:"lossgrad_allocs_per_op,omitempty"`
	// CacheHitRate is the warm-run tile-cache hit rate (0..1) of the
	// serving cache experiment: the fraction of tile solves a second,
	// identical run answers from the content-addressed cache. Tri-state
	// like LossGradAllocs — nil means the producer predates the tile
	// cache. The experiment is deterministic per code version, so a drop
	// means cache keys started splitting, not that a run got unlucky.
	CacheHitRate *float64 `json:"cache_hit_rate,omitempty"`
	// ShardCount is the tile-shard worker count the run's flows fanned
	// out over (provenance, like Workers): 1 is the in-process path.
	// Tri-state like LossGradAllocs — nil means the producer predates
	// distributed sharding and is comparable only with an unsharded
	// (nil or 1) run. TATs measured at different shard counts are not
	// comparable, so benchdiff treats any other mismatch as
	// incomparable rather than as a regression.
	ShardCount *int `json:"shard_count,omitempty"`
	// Solver is the opt registry name the run's "Ours" flow rows solved
	// tiles with (provenance, like Workers). Tri-state like ShardCount
	// — nil means the producer predates the solver registry and is
	// comparable only with a nil or "pixel" run; metrics measured with
	// different solver backends are different experiments, so any other
	// mismatch is incomparable rather than a regression.
	Solver *string `json:"solver,omitempty"`
	// IterationsToQuality is the scaling experiment's headline number:
	// solver iterations the two-level (coarse-corrected) Schwarz flow
	// needs to reach the fixed quality bar at the largest (8×8) tile
	// grid. Tri-state like LossGradAllocs — nil means the producer
	// predates the scaling experiment. The sweep is deterministic per
	// code version, so growth means the coarse space got weaker, not
	// that a run got unlucky.
	IterationsToQuality *float64 `json:"iterations_to_quality,omitempty"`
	// TilesDroppedRate is the fraction (0..1) of fine-stage tile solves
	// the convergence-dropout phase of the scaling experiment skipped.
	// Tri-state like IterationsToQuality; a drop means tiles stopped
	// reaching the DropTol criterion, i.e. per-tile convergence got
	// slower.
	TilesDroppedRate *float64     `json:"tiles_dropped_rate,omitempty"`
	Experiments      []Experiment `json:"experiments"`
}

// WriteFile marshals the document with stable indentation.
func (d *Doc) WriteFile(path string) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Parse decodes and validates a trajectory document from raw bytes.
// It is the single entry point for untrusted input (ReadFile routes
// through it, and the fuzz harness attacks it directly), so any
// document it accepts is safe to hand to Compare and the report
// renderers.
func Parse(data []byte) (*Doc, error) {
	var d Doc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("benchfmt: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// gate is one gated scalar of a Doc. Each is optional — a nil pointer
// means the producer predates the measurement, and the gate runs only
// when both documents carry it — and deterministic per code version, so
// its tolerance is a small absolute slack, not a relative threshold.
type gate struct {
	name         string // JSON field name
	value        func(*Doc) *float64
	max          float64 // valid range is [0, max]; +Inf when unbounded
	higherBetter bool
	slack        float64
	// Finding labels of a regression.
	experiment, method, metric string
}

var gates = []gate{
	// The slack absorbs pool warm-up jitter: a baseline of 0 must stay 0.
	{"lossgrad_allocs_per_op", func(d *Doc) *float64 { return d.LossGradAllocs }, math.Inf(1), false, 0.5,
		"hotpath", "LossGrad", "allocs/op"},
	// The slack only absorbs experiment-shape drift, so a baseline of 1.0
	// effectively pins full reuse.
	{"cache_hit_rate", func(d *Doc) *float64 { return d.CacheHitRate }, 1, true, 0.02,
		"cache", "TileCache", "hit-rate"},
	// More iterations at 8×8 means the coarse space lost effectiveness.
	// The slack is one fine stage's budget, absorbing threshold
	// quantisation at the stage boundary.
	{"iterations_to_quality", func(d *Doc) *float64 { return d.IterationsToQuality }, math.Inf(1), false, 4,
		"scaling", "TwoLevel", "iters-to-quality"},
	// A falling dropped-solve rate means per-tile convergence detection
	// got weaker.
	{"tiles_dropped_rate", func(d *Doc) *float64 { return d.TilesDroppedRate }, 1, true, 0.02,
		"scaling", "Dropout", "dropped-rate"},
}

// Validate checks the structural invariants every trajectory document
// must satisfy: non-negative provenance counts and calibration, finite
// non-negative metrics, named experiments/methods, and table rows as
// wide as their headers.
func (d *Doc) Validate() error {
	switch {
	case d.N < 0 || d.Clip < 0 || d.Cases < 0 || d.Iters < 0 || d.Workers < 0:
		return fmt.Errorf("benchfmt: negative provenance count (n=%d clip=%d cases=%d iters=%d workers=%d)",
			d.N, d.Clip, d.Cases, d.Iters, d.Workers)
	case d.CalibNS < 0:
		return fmt.Errorf("benchfmt: negative calibration %d ns", d.CalibNS)
	}
	for _, g := range gates {
		v := g.value(d)
		if v == nil || !(math.IsNaN(*v) || math.IsInf(*v, 0) || *v < 0 || *v > g.max) {
			continue
		}
		if math.IsInf(g.max, 1) {
			return fmt.Errorf("benchfmt: invalid %s %v", g.name, *v)
		}
		return fmt.Errorf("benchfmt: %s %v outside [0,%g]", g.name, *v, g.max)
	}
	if s := d.ShardCount; s != nil && *s < 1 {
		return fmt.Errorf("benchfmt: shard_count %d must be >= 1", *s)
	}
	if s := d.Solver; s != nil && *s == "" {
		return fmt.Errorf("benchfmt: solver present but empty (omit the field for the default)")
	}
	for i := range d.Experiments {
		e := &d.Experiments[i]
		if e.Name == "" {
			return fmt.Errorf("benchfmt: experiment %d has no name", i)
		}
		for j := range e.Methods {
			m := &e.Methods[j]
			if m.Name == "" {
				return fmt.Errorf("benchfmt: %s method %d has no name", e.Name, j)
			}
			for _, v := range []struct {
				name string
				val  float64
			}{
				{"L2", m.Metrics.L2}, {"PVBand", m.Metrics.PVBand},
				{"Stitch", m.Metrics.Stitch}, {"TATSec", m.Metrics.TATSec},
			} {
				if math.IsNaN(v.val) || math.IsInf(v.val, 0) || v.val < 0 {
					return fmt.Errorf("benchfmt: %s/%s metric %s = %v invalid", e.Name, m.Name, v.name, v.val)
				}
			}
		}
		for j, row := range e.Rows {
			if len(e.Headers) > 0 && len(row) != len(e.Headers) {
				return fmt.Errorf("benchfmt: %s row %d has %d cells for %d headers", e.Name, j, len(row), len(e.Headers))
			}
		}
	}
	return nil
}

// ReadFile loads a trajectory document.
func ReadFile(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// calibSink prevents the calibration loop from being optimised away.
var calibSink float64

// Calibrate measures the host's serial floating-point throughput on a
// fixed synthetic workload and returns the best-of-three wall time in
// nanoseconds. The loop is self-contained on purpose (no FFT, no grid
// code): it normalises for hardware speed without absorbing changes to
// the code under test.
func Calibrate() int64 {
	best := int64(math.MaxInt64)
	for r := 0; r < 3; r++ {
		start := time.Now()
		x, s := 1.0001, 0.0
		for i := 0; i < 5_000_000; i++ {
			s += x
			x = x*1.0000001 + 1e-9
			if s > 1e12 {
				s = 1
			}
		}
		calibSink = s + x
		if d := time.Since(start).Nanoseconds(); d < best {
			best = d
		}
	}
	return best
}

// CompareOptions tunes the regression gate.
type CompareOptions struct {
	// TATThreshold is the tolerated relative TAT growth (0.10 = +10%).
	// Defaults to 0.10 when zero.
	TATThreshold float64
	// QualityEps is the tolerated relative growth of the quality
	// metrics (L2 / PVBand / Stitch). The experiments are fully
	// deterministic at fixed code, so any genuine growth is a
	// regression; the epsilon only absorbs float formatting. Defaults
	// to 1e-9 when zero.
	QualityEps float64
	// AbsoluteTAT disables calibration normalisation and compares raw
	// TAT seconds (only meaningful on the machine that produced the
	// baseline).
	AbsoluteTAT bool
}

func (o CompareOptions) withDefaults() CompareOptions {
	if o.TATThreshold == 0 {
		o.TATThreshold = 0.10
	}
	if o.QualityEps == 0 {
		o.QualityEps = 1e-9
	}
	return o
}

// Finding is one detected regression.
type Finding struct {
	Experiment string
	Method     string
	Metric     string
	Base, Cur  float64 // normalised values for TAT, raw for quality
	Rel        float64 // relative growth (Cur/Base - 1); +Inf if Base == 0
}

func (f Finding) String() string {
	return fmt.Sprintf("%s/%s %s: %.6g -> %.6g (%+.1f%%)",
		f.Experiment, f.Method, f.Metric, f.Base, f.Cur, 100*f.Rel)
}

// Result is the outcome of a Compare.
type Result struct {
	Regressions []Finding
	// Checked counts metric comparisons performed, so callers can
	// detect a vacuously green run (no overlapping experiments).
	Checked int
}

// OK reports whether the gate passes.
func (r *Result) OK() bool { return len(r.Regressions) == 0 }

// incomparable builds the provenance-mismatch error.
func incomparable(field string, base, cur any) error {
	return fmt.Errorf("benchfmt: incomparable runs: %s differs (baseline %v, current %v)", field, base, cur)
}

// Compare gates cur against base: any growth of L2 / PVBand / Stitch
// beyond QualityEps, or TAT growth beyond TATThreshold (calibration-
// normalised unless AbsoluteTAT), is a regression. Documents with
// mismatched provenance (scale, optics geometry, worker count) return
// an error instead of a verdict; a method present in the baseline but
// missing from the current run does too.
func Compare(base, cur *Doc, opts CompareOptions) (*Result, error) {
	opts = opts.withDefaults()
	switch {
	case base.Scale != cur.Scale:
		return nil, incomparable("scale", base.Scale, cur.Scale)
	case base.N != cur.N:
		return nil, incomparable("n", base.N, cur.N)
	case base.Clip != cur.Clip:
		return nil, incomparable("clip", base.Clip, cur.Clip)
	case base.Cases != cur.Cases:
		return nil, incomparable("cases", base.Cases, cur.Cases)
	case base.Iters != cur.Iters:
		return nil, incomparable("iters", base.Iters, cur.Iters)
	case base.Kernels != cur.Kernels:
		return nil, incomparable("kernels", base.Kernels, cur.Kernels)
	case base.Workers != cur.Workers:
		return nil, incomparable("workers", base.Workers, cur.Workers)
	}
	// Shard-count provenance: tri-state, so a nil (pre-sharding)
	// document is equivalent to the in-process shard count of 1.
	shardOf := func(d *Doc) int {
		if d.ShardCount == nil {
			return 1
		}
		return *d.ShardCount
	}
	if shardOf(base) != shardOf(cur) {
		return nil, incomparable("shard_count", shardOf(base), shardOf(cur))
	}
	// Solver provenance: tri-state, so a nil (pre-registry) document is
	// equivalent to the default "pixel" backend.
	solverOf := func(d *Doc) string {
		if d.Solver == nil {
			return "pixel"
		}
		return *d.Solver
	}
	if solverOf(base) != solverOf(cur) {
		return nil, incomparable("solver", solverOf(base), solverOf(cur))
	}
	tatScale := func(d *Doc) (float64, error) {
		if opts.AbsoluteTAT {
			return 1, nil
		}
		if d.CalibNS <= 0 {
			return 0, fmt.Errorf("benchfmt: document lacks calibration (calib_ns); rerun iltbench or pass absolute-TAT mode")
		}
		return float64(d.CalibNS) / 1e9, nil
	}
	baseCal, err := tatScale(base)
	if err != nil {
		return nil, err
	}
	curCal, err := tatScale(cur)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	for _, g := range gates {
		b, c := g.value(base), g.value(cur)
		if b == nil || c == nil {
			continue
		}
		res.Checked++
		worse, rel := *c > *b+g.slack, math.Inf(1)
		if g.higherBetter {
			worse, rel = *c < *b-g.slack, 0
		}
		if !worse {
			continue
		}
		if *b > 0 {
			rel = *c / *b - 1
		}
		res.Regressions = append(res.Regressions, Finding{
			Experiment: g.experiment, Method: g.method, Metric: g.metric,
			Base: *b, Cur: *c, Rel: rel,
		})
	}
	grew := func(baseV, curV, tol float64) (float64, bool) {
		if curV <= baseV*(1+tol) {
			return 0, false
		}
		if baseV == 0 {
			return math.Inf(1), true
		}
		return curV/baseV - 1, true
	}
	for _, be := range base.Experiments {
		if len(be.Methods) == 0 {
			continue
		}
		ce := findExperiment(cur, be.Name)
		if ce == nil {
			return nil, fmt.Errorf("benchfmt: experiment %q missing from current run", be.Name)
		}
		for _, bm := range be.Methods {
			cm := findMethod(ce, bm.Name)
			if cm == nil {
				return nil, fmt.Errorf("benchfmt: method %q missing from current %s", bm.Name, be.Name)
			}
			quality := []struct {
				name      string
				base, cur float64
			}{
				{"L2", bm.Metrics.L2, cm.Metrics.L2},
				{"PVBand", bm.Metrics.PVBand, cm.Metrics.PVBand},
				{"Stitch", bm.Metrics.Stitch, cm.Metrics.Stitch},
			}
			for _, q := range quality {
				res.Checked++
				if rel, bad := grew(q.base, q.cur, opts.QualityEps); bad {
					res.Regressions = append(res.Regressions, Finding{
						Experiment: be.Name, Method: bm.Name, Metric: q.name,
						Base: q.base, Cur: q.cur, Rel: rel,
					})
				}
			}
			res.Checked++
			bTAT := bm.Metrics.TATSec / baseCal
			cTAT := cm.Metrics.TATSec / curCal
			if rel, bad := grew(bTAT, cTAT, opts.TATThreshold); bad {
				res.Regressions = append(res.Regressions, Finding{
					Experiment: be.Name, Method: bm.Name, Metric: "TAT(norm)",
					Base: bTAT, Cur: cTAT, Rel: rel,
				})
			}
		}
	}
	return res, nil
}

func findExperiment(d *Doc, name string) *Experiment {
	for i := range d.Experiments {
		if d.Experiments[i].Name == name {
			return &d.Experiments[i]
		}
	}
	return nil
}

func findMethod(e *Experiment, name string) *Method {
	for i := range e.Methods {
		if e.Methods[i].Name == name {
			return &e.Methods[i]
		}
	}
	return nil
}
