// Package benchfmt defines the machine-readable benchmark trajectory
// document written by `cmd/iltbench -json` and consumed by
// `cmd/benchdiff`.
//
// A Doc carries three groups of data:
//
//   - Provenance: the experiment scale and shape, the kernel set and
//     the solver. benchdiff refuses to compare documents whose
//     provenance differs. Workers and GitDescribe are recorded but never
//     compared: every result is independent of the pool width.
//   - Cells: the run's deterministic scalars (warm cache hit rate,
//     two-level iterations to quality, dropped-solve rate).
//   - Experiments: per-method metric groups (the Table 1 columns) and
//     raw rendered tables for any experiment. TATSec is recorded only.
//
// Every compared number is deterministic per code version, so benchdiff
// compares for exact equality: any change, better or worse, means a
// result bit moved.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

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
	// Provenance names what the run computed: scale, n, clip, cases,
	// iters, kernels and solver.
	Provenance map[string]string `json:"provenance,omitempty"`
	// Workers is the compute pool width the run used.
	Workers int `json:"workers"`
	// GitDescribe identifies the producing tree (git describe
	// --always --dirty).
	GitDescribe string `json:"git_describe,omitempty"`
	// Cells holds the deterministic scalars of the cache and scaling
	// experiments; a name ending in "_rate" is a fraction in [0, 1].
	Cells       map[string]float64 `json:"cells,omitempty"`
	Experiments []Experiment       `json:"experiments"`
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
// renderers. Fields it does not know, such as the calibration and
// gate scalars of older documents, are ignored.
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

// Validate checks the structural invariants every trajectory document
// must satisfy: a non-negative worker count, finite non-negative cells
// and metrics, named experiments/methods, and table rows as wide as
// their headers.
func (d *Doc) Validate() error {
	if d.Workers < 0 {
		return fmt.Errorf("benchfmt: negative workers %d", d.Workers)
	}
	for name, v := range d.Cells {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || (strings.HasSuffix(name, "_rate") && v > 1) {
			return fmt.Errorf("benchfmt: invalid cell %s = %v", name, v)
		}
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

// Finding is one compared number that differs from the baseline.
type Finding struct {
	Name      string // "cell" or "experiment/method metric"
	Base, Cur float64
	Missing   bool // the current document lacks the cell
}

func (f Finding) String() string {
	if f.Missing {
		return f.Name + ": missing from the current run"
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf("%s: %s -> %s", f.Name, g(f.Base), g(f.Cur))
}

// Result is the outcome of a Compare.
type Result struct {
	Changed []Finding
	// Checked counts the numbers compared, so callers can detect a
	// vacuously green run (no overlapping experiments).
	Checked int
}

// OK reports whether every compared number is unchanged.
func (r *Result) OK() bool { return len(r.Changed) == 0 }

// Compare checks cur against base. Documents whose provenance differs,
// and a current document that lacks a baseline experiment or method,
// return an error instead of a verdict. Otherwise every baseline cell
// and every baseline method's L2, PVBand and Stitch must be present and
// equal; TAT is not compared.
func Compare(base, cur *Doc) (*Result, error) {
	for _, k := range sortedKeys(base.Provenance, cur.Provenance) {
		b, bok := base.Provenance[k]
		c, cok := cur.Provenance[k]
		if b != c || bok != cok {
			return nil, fmt.Errorf("benchfmt: incomparable runs: provenance %s differs (baseline %q, current %q)", k, b, c)
		}
	}
	res := &Result{}
	for _, k := range sortedKeys(base.Cells) {
		res.Checked++
		c, ok := cur.Cells[k]
		if !ok || c != base.Cells[k] {
			res.Changed = append(res.Changed, Finding{Name: k, Base: base.Cells[k], Cur: c, Missing: !ok})
		}
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
			for _, q := range []struct {
				name      string
				base, cur float64
			}{
				{"L2", bm.Metrics.L2, cm.Metrics.L2},
				{"PVBand", bm.Metrics.PVBand, cm.Metrics.PVBand},
				{"Stitch", bm.Metrics.Stitch, cm.Metrics.Stitch},
			} {
				res.Checked++
				if q.cur != q.base {
					res.Changed = append(res.Changed, Finding{Name: be.Name + "/" + bm.Name + " " + q.name, Base: q.base, Cur: q.cur})
				}
			}
		}
	}
	return res, nil
}

// sortedKeys is the sorted union of the maps' keys.
func sortedKeys[V any](ms ...map[string]V) []string {
	var keys []string
	for _, m := range ms {
		for k := range m {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	return slices.Compact(keys)
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
