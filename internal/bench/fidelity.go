package bench

import (
	"fmt"

	"mgsilt/internal/core"
	"mgsilt/internal/device"
	"mgsilt/internal/litho"
	"mgsilt/internal/report"
)

// The fidelity experiment measures the progressive-fidelity engine:
// the multigrid-Schwarz flow run under energy-ranked kernel-truncation
// schedules, where early fine stages (and their coarse corrections)
// evaluate only the smallest kernel prefix covering the stage's energy
// budget while the final stage always runs the full operator. The
// sweep records quality (Table 1 L2 / PVBand / Stitch), wall-clock
// TAT, and the deterministic work counter — per-kernel forward
// transforms actually evaluated — for the full schedule and a set of
// truncated ones.
//
// Like RunCache and RunScaling this is a gate, not just a report: it
// fails when the progressive-fidelity contract is violated rather than
// emitting numbers for a broken engine. Truncated schedules must
// evaluate strictly fewer kernels than the full run (the counter is
// deterministic, so this cannot flake the way a TAT gate would), and
// because the final stage runs untruncated, the finished mask's L2
// must stay within fidelityL2Tol of the full-schedule result.

// fidelityL2Tol bounds the relative L2 degradation a truncated
// schedule may show against the full run. The final fine stage always
// evaluates every kernel, so truncation only perturbs the trajectory,
// not the last optimisation target; the tolerance absorbs that
// trajectory drift.
const fidelityL2Tol = 0.05

// FidelityPoint is one schedule variant of the sweep, averaged over
// the clip suite.
type FidelityPoint struct {
	Name     string
	Schedule []float64 // nil = full fidelity at every stage
	Metrics  report.Metrics
	Kernels  int64 // per-kernel forward evaluations consumed by the variant's runs
}

// FidelityResult is the full schedule sweep. Points[0] is always the
// full-fidelity reference the gate compares against.
type FidelityResult struct {
	Points []FidelityPoint
}

// fidelitySchedules returns the sweep variants for the experiment's
// two-stage fine schedule: the full reference plus two truncation
// depths. The last entry of every schedule is 1 — the engine's
// exactness contract requires the final stage to run the full
// operator.
//
// The budgets are chosen to drop something: litho evaluates the default
// nominal set as six conjugate pairs of equal weight, so a budget
// truncates in steps of 1/6 — 0.75 retains five pairs, 0.6 four, and
// anything above 5/6 all six, which the kernel-count gate
// of RunFidelity rejects. 0.5 (three pairs) fails the L2 gate.
func fidelitySchedules() []FidelityPoint {
	return []FidelityPoint{
		{Name: "full", Schedule: nil},
		{Name: "f60", Schedule: []float64{0.6, 1}},
		{Name: "f75", Schedule: []float64{0.75, 1}},
	}
}

// RunFidelity executes the progressive-fidelity schedule sweep with
// the multigrid-Schwarz flow over the whole clip suite.
func (e *Env) RunFidelity(progress func(string)) (*FidelityResult, error) {
	res := &FidelityResult{Points: fidelitySchedules()}
	for i := range res.Points {
		pt := &res.Points[i]
		before := litho.KernelsEvaluatedTotal()
		var avg report.Metrics
		for _, clip := range e.Clips {
			if progress != nil {
				progress(fmt.Sprintf("fidelity / %s / %s", clip.ID, pt.Name))
			}
			cl, err := device.NewCluster(1, 0)
			if err != nil {
				return nil, err
			}
			cfg := e.BaseConfig()
			cfg.Cluster = cl
			cfg.FidelitySchedule = pt.Schedule
			r, err := core.MultigridSchwarz(cfg, clip.Target)
			if err != nil {
				return nil, fmt.Errorf("bench: fidelity %s on %s: %w", pt.Name, clip.ID, err)
			}
			avg.Add(toMetrics(r))
		}
		avg.Scale(1 / float64(len(e.Clips)))
		pt.Metrics = avg
		pt.Kernels = litho.KernelsEvaluatedTotal() - before
	}

	full := res.Points[0]
	for _, pt := range res.Points[1:] {
		if pt.Kernels >= full.Kernels {
			return nil, fmt.Errorf("bench: fidelity %s evaluated %d kernels, not below full's %d",
				pt.Name, pt.Kernels, full.Kernels)
		}
		if pt.Metrics.L2 > full.Metrics.L2*(1+fidelityL2Tol) {
			return nil, fmt.Errorf("bench: fidelity %s L2 %.2f degrades full's %.2f beyond %.0f%%",
				pt.Name, pt.Metrics.L2, full.Metrics.L2, 100*fidelityL2Tol)
		}
	}
	return res, nil
}

// Render builds the schedule-sweep table. Kernel counts and TAT are
// reported as ratios against the full-fidelity reference so the table
// reads as "work and time bought per unit of trajectory drift".
func (r *FidelityResult) Render() *report.Table {
	tab := report.New("schedule", "L2", "PVBand", "Stitch", "TAT(s)", "kernels", "work vs full", "TAT vs full")
	full := r.Points[0]
	for _, p := range r.Points {
		tab.AddRow(
			scheduleLabel(p),
			fmt.Sprintf("%.2f", p.Metrics.L2),
			fmt.Sprintf("%.2f", p.Metrics.PVBand),
			fmt.Sprintf("%.2f", p.Metrics.Stitch),
			fmt.Sprintf("%.3f", p.Metrics.TATSec),
			fmt.Sprintf("%d", p.Kernels),
			fmt.Sprintf("%.2f", float64(p.Kernels)/float64(full.Kernels)),
			fmt.Sprintf("%.2f", p.Metrics.TATSec/full.Metrics.TATSec))
	}
	return tab
}

func scheduleLabel(p FidelityPoint) string {
	if len(p.Schedule) == 0 {
		return p.Name + " (1,1)"
	}
	s := p.Name + " ("
	for i, f := range p.Schedule {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%g", f)
	}
	return s + ")"
}
