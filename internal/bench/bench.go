// Package bench is the experiment harness behind every table and
// figure of the paper (see DESIGN.md, per-experiment index). It builds
// the synthetic evaluation environment (optics + clip suite), runs the
// four Table 1 methods plus the figure-specific flows, and renders
// rows in the paper's format. cmd/iltbench drives it, one experiment
// per -experiment name.
package bench

import (
	"fmt"

	"mgsilt/internal/core"
	"mgsilt/internal/device"
	"mgsilt/internal/grid"
	"mgsilt/internal/kernels"
	"mgsilt/internal/layout"
	"mgsilt/internal/litho"
	"mgsilt/internal/opt"
	"mgsilt/internal/report"
)

// Scale fixes the experiment size. The paper runs N=2048 optics on
// 4096² clips with 100 iterations over 20 cases; a pure-Go CPU
// substrate reproduces the same geometry proportionally (clip = 2N,
// 3×3 tiles, overlap N/2) at reduced N.
type Scale struct {
	Name  string
	N     int   // native simulator grid
	Clip  int   // clip side (2N, matching the paper's 4096 vs 2048)
	Cases int   // number of benchmark clips (paper: 20)
	Iters int   // baseline iteration budget (paper: 100)
	Seed  int64 // suite base seed
}

var (
	// ScaleSmall is CI-sized: every experiment finishes in seconds.
	ScaleSmall = Scale{Name: "small", N: 64, Clip: 128, Cases: 3, Iters: 40, Seed: 1000}
	// ScaleDefault reproduces the paper's orderings with stable
	// margins-vs-optics proportions (see DESIGN.md substitutions).
	ScaleDefault = Scale{Name: "default", N: 128, Clip: 256, Cases: 5, Iters: 100, Seed: 1000}
	// ScaleFull is the Table 1 run: 20 clips at the default optics.
	ScaleFull = Scale{Name: "full", N: 128, Clip: 256, Cases: 20, Iters: 100, Seed: 1000}
)

// Env is a fully-built experiment environment.
type Env struct {
	Scale Scale
	Sim   *litho.Simulator
	Clips []*layout.Clip
	// Solver, when non-nil, is the solver the "Ours" multigrid-Schwarz
	// rows solve tiles with; nil keeps the default (pixel). Reference
	// methods keep their paper-mandated solvers regardless.
	Solver opt.Solver
}

// NewEnv builds the optics and the clip suite for a scale.
func NewEnv(sc Scale) (*Env, error) {
	sim, err := litho.NewStandard(sc.N)
	if err != nil {
		return nil, err
	}
	clips, err := layout.Suite(sc.Cases, sc.Clip, sc.Seed)
	if err != nil {
		return nil, err
	}
	return &Env{Scale: sc, Sim: sim, Clips: clips}, nil
}

// KernelProvenance describes the optics the environment was built
// with: the nominal kernel configuration plus the defocus of the
// standard optics' process-window set. Benchmark documents
// embed it so the regression gate never compares runs that exercised
// different optics.
func (e *Env) KernelProvenance() string {
	return fmt.Sprintf("%s;defocus=%g", kernels.DefaultConfig(e.Scale.N).Provenance(), litho.StandardDefocus)
}

// BaseConfig returns the shared experiment configuration.
func (e *Env) BaseConfig() core.Config {
	cfg := core.DefaultConfig(e.Sim, e.Scale.Clip, e.Scale.Iters)
	cfg.Solver = e.Solver
	return cfg
}

// Method is one Table 1 column group: a flow run with a solver.
type Method struct {
	Name string
	// Flow is the core.Flow name the method runs.
	Flow string
	// Solver is the opt registry name of the method's solver; empty
	// means Env.Solver, the solver of the Ours rows.
	Solver string
}

// Methods are the four Table 1 methods in paper order: GLS-ILT [3] and
// Multi-level-ILT [4] under traditional divide-and-conquer, Full-chip
// ILT, and Ours (multigrid-Schwarz). Full-chip runs the multilevel
// solver on the whole clip, where its pyramid is 2 + log2(clip/N) deep.
var Methods = []Method{
	{Name: "GLS-ILT", Flow: "dc", Solver: "levelset"},
	{Name: "Multi-level-ILT", Flow: "dc", Solver: "multilevel"},
	{Name: "Full-chip", Flow: "fullchip", Solver: "multilevel"},
	{Name: "Ours", Flow: "mgs"},
}

// Run runs method m on target with the shared experiment configuration.
// A nil cluster is one device with unlimited memory.
func (e *Env) Run(m Method, target *grid.Mat, cl *device.Cluster) (*core.Result, error) {
	flow, err := core.Flow(m.Flow)
	if err != nil {
		return nil, err
	}
	cfg := e.BaseConfig()
	cfg.Cluster = cl
	if m.Solver != "" {
		if cfg.Solver, err = opt.New(m.Solver, e.Sim); err != nil {
			return nil, err
		}
	}
	return flow(cfg, target)
}

func toMetrics(r *core.Result) report.Metrics {
	return report.Metrics{L2: r.L2, PVBand: r.PVBand, Stitch: r.StitchLoss, TATSec: r.TAT.Seconds()}
}

// Table1Result holds the full Table 1 data.
type Table1Result struct {
	Methods []string
	Cases   []string
	Areas   []float64
	// Cells[caseIdx][methodIdx]
	Cells   [][]report.Metrics
	Average []report.Metrics
	Ratio   []report.Metrics // normalised against "Ours" (last method)
}

// RunTable1 executes the Table 1 comparison over the whole suite.
func (e *Env) RunTable1(progress func(string)) (*Table1Result, error) {
	res := &Table1Result{}
	for _, m := range Methods {
		res.Methods = append(res.Methods, m.Name)
	}
	avg := make([]report.Metrics, len(Methods))
	for _, clip := range e.Clips {
		var row []report.Metrics
		for _, m := range Methods {
			if progress != nil {
				progress(fmt.Sprintf("%s / %s", clip.ID, m.Name))
			}
			cl, err := device.NewCluster(1, 0)
			if err != nil {
				return nil, err
			}
			r, err := e.Run(m, clip.Target, cl)
			if err != nil {
				return nil, fmt.Errorf("bench: %s on %s: %w", m.Name, clip.ID, err)
			}
			row = append(row, toMetrics(r))
		}
		res.Cases = append(res.Cases, clip.ID)
		res.Areas = append(res.Areas, float64(clip.AreaPx()))
		res.Cells = append(res.Cells, row)
		for i := range row {
			avg[i].Add(row[i])
		}
	}
	n := float64(len(e.Clips))
	for i := range avg {
		avg[i].Scale(1 / n)
	}
	res.Average = avg
	ours := avg[len(avg)-1]
	for i := range avg {
		res.Ratio = append(res.Ratio, avg[i].Ratio(ours))
	}
	return res, nil
}

// Render builds the Table 1 text table.
func (t *Table1Result) Render() *report.Table {
	headers := []string{"case", "area(px)"}
	for _, m := range t.Methods {
		headers = append(headers, report.MetricHeaders(m)...)
	}
	tab := report.New(headers...)
	for i, c := range t.Cases {
		cells := []string{c, fmt.Sprintf("%.0f", t.Areas[i])}
		for _, m := range t.Cells[i] {
			cells = append(cells, m.Cells()...)
		}
		tab.AddRow(cells...)
	}
	avg := []string{"Average", ""}
	for _, m := range t.Average {
		avg = append(avg, m.Cells()...)
	}
	tab.AddRow(avg...)
	ratio := []string{"Ratio", ""}
	for _, m := range t.Ratio {
		ratio = append(ratio, m.RatioCells()...)
	}
	tab.AddRow(ratio...)
	return tab
}
