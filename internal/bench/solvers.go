package bench

import (
	"fmt"

	"mgsilt/internal/core"
	"mgsilt/internal/device"
	"mgsilt/internal/mrc"
	"mgsilt/internal/opt"
	"mgsilt/internal/report"
)

// The solvers experiment runs the multigrid-Schwarz flow once per
// registered opt backend on the first suite clip — the table1 small
// case — so a new backend's quality is one `iltbench -experiment
// solvers` away from a side-by-side with the paper's solvers. Beyond
// reporting, the experiment is the ADMM quality gate: operator
// splitting trades some per-iteration progress for its exact prox
// binarisation, and the gate pins that trade within ADMML2Factor of
// the Pixel reference at the same iteration budget, failing the run
// (and the CI bench job) if ADMM regresses past it.

// ADMML2Factor caps ADMM's L2 at this multiple of Pixel's on the
// shared clip. Measured headroom at the small scale is ~1.1×; 2×
// leaves room for tuning drift without letting a broken x/z/u loop
// through.
const ADMML2Factor = 2.0

// SolverRow is one backend's metrics on the shared clip.
type SolverRow struct {
	Name          string
	Metrics       report.Metrics
	MRCViolations int
}

// SolversResult is the per-backend comparison.
type SolversResult struct {
	Rows []SolverRow
}

// RunSolvers solves the first suite clip once per registered backend
// under the "Ours" flow and gates ADMM against Pixel.
func (e *Env) RunSolvers(progress func(string)) (*SolversResult, error) {
	clip := e.Clips[0]
	res := &SolversResult{}
	byName := map[string]report.Metrics{}
	for _, name := range opt.Names() {
		progress(fmt.Sprintf("solvers: %s on %s", name, clip.ID))
		cl, err := device.NewCluster(1, 0)
		if err != nil {
			return nil, err
		}
		cfg := e.BaseConfig()
		cfg.Cluster = cl
		cfg.Solver, cfg.SolverName = nil, name
		r, err := core.MultigridSchwarz(cfg, clip.Target)
		if err != nil {
			return nil, fmt.Errorf("solvers: %s: %w", name, err)
		}
		rep, err := mrc.Check(r.Mask.Binarize(0.5), mrc.DefaultRules())
		if err != nil {
			return nil, err
		}
		m := toMetrics(r)
		byName[name] = m
		res.Rows = append(res.Rows, SolverRow{Name: name, Metrics: m, MRCViolations: rep.Total()})
	}
	pixel, admm := byName["pixel"], byName["admm"]
	if pixel.L2 > 0 && admm.L2 > ADMML2Factor*pixel.L2 {
		return nil, fmt.Errorf("solvers: admm L2 %.0f exceeds %.1f× pixel L2 %.0f", admm.L2, ADMML2Factor, pixel.L2)
	}
	return res, nil
}

// Render emits the comparison table.
func (r *SolversResult) Render() *report.Table {
	t := report.New("Solver", "L2", "PVBand", "Stitch", "TAT (s)", "MRC")
	for _, row := range r.Rows {
		c := row.Metrics.Cells()
		t.AddRow(row.Name, c[0], c[1], c[2], c[3], fmt.Sprintf("%d", row.MRCViolations))
	}
	return t
}
