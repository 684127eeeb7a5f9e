package bench

import (
	"fmt"
	"time"

	"mgsilt/internal/core"
	"mgsilt/internal/device"
	"mgsilt/internal/metrics"
	"mgsilt/internal/opt"
	"mgsilt/internal/parallel"
	"mgsilt/internal/report"
)

// Fig6Result is the weighted-smoothing ablation (Fig. 6 / Eq. 14 vs
// Eq. 6): the multigrid-Schwarz flow with hard RAS assembly against
// the weighted-smoothing assembly.
type Fig6Result struct {
	Cases        []string
	HardStitch   []float64 // BlendWidth = 0 (Eq. 6)
	SmoothStitch []float64 // default blending (Eq. 14)
	HardL2       []float64
	SmoothL2     []float64
}

// RunFig6 executes the smoothing ablation over the suite.
func (e *Env) RunFig6(progress func(string)) (*Fig6Result, error) {
	out := &Fig6Result{}
	for _, clip := range e.Clips {
		if progress != nil {
			progress(clip.ID)
		}
		hard := e.BaseConfig()
		hard.BlendWidth = 0
		hr, err := core.MultigridSchwarz(hard, clip.Target)
		if err != nil {
			return nil, err
		}
		smooth := e.BaseConfig()
		sr, err := core.MultigridSchwarz(smooth, clip.Target)
		if err != nil {
			return nil, err
		}
		out.Cases = append(out.Cases, clip.ID)
		out.HardStitch = append(out.HardStitch, hr.StitchLoss)
		out.SmoothStitch = append(out.SmoothStitch, sr.StitchLoss)
		out.HardL2 = append(out.HardL2, hr.L2)
		out.SmoothL2 = append(out.SmoothL2, sr.L2)
	}
	return out, nil
}

// Render builds the Fig. 6 table.
func (f *Fig6Result) Render() *report.Table {
	tab := report.New("case", "stitch(Eq.6 hard)", "stitch(Eq.14 weighted)", "L2(hard)", "L2(weighted)")
	for i, c := range f.Cases {
		tab.AddRow(c,
			fmt.Sprintf("%.1f", f.HardStitch[i]),
			fmt.Sprintf("%.1f", f.SmoothStitch[i]),
			fmt.Sprintf("%.0f", f.HardL2[i]),
			fmt.Sprintf("%.0f", f.SmoothL2[i]))
	}
	return tab
}

// Fig7Result is the stitch-and-heal critique (Fig. 7): healing reduces
// stitch loss on the original boundaries but creates errors on the new
// window boundaries it introduces.
type Fig7Result struct {
	Cases          []string
	DCOriginal     []float64 // D&C stitch loss on original lines
	HealedOriginal []float64 // after healing, original lines
	HealedNewEdges []float64 // after healing, the healing windows' own edges
	OursOriginal   []float64 // multigrid-Schwarz reference
}

// RunFig7 executes the stitch-and-heal comparison.
func (e *Env) RunFig7(progress func(string)) (*Fig7Result, error) {
	out := &Fig7Result{}
	for _, clip := range e.Clips {
		if progress != nil {
			progress(clip.ID)
		}
		cfg := e.BaseConfig()
		cfg.Solver = opt.NewMultiLevel(e.Sim)
		dc, err := core.DivideAndConquer(cfg, clip.Target)
		if err != nil {
			return nil, err
		}
		heal, err := core.StitchAndHeal(cfg, clip.Target)
		if err != nil {
			return nil, err
		}
		ours, err := core.MultigridSchwarz(e.BaseConfig(), clip.Target)
		if err != nil {
			return nil, err
		}
		healedOnNew, _ := metrics.StitchLoss(heal.Mask.Binarize(0.5), heal.AuxLines, cfg.Stitch)
		out.Cases = append(out.Cases, clip.ID)
		out.DCOriginal = append(out.DCOriginal, dc.StitchLoss)
		out.HealedOriginal = append(out.HealedOriginal, heal.StitchLoss)
		out.HealedNewEdges = append(out.HealedNewEdges, healedOnNew)
		out.OursOriginal = append(out.OursOriginal, ours.StitchLoss)
	}
	return out, nil
}

// Render builds the Fig. 7 table.
func (f *Fig7Result) Render() *report.Table {
	tab := report.New("case", "D&C(orig lines)", "healed(orig lines)", "healed(new edges)", "ours(orig lines)")
	for i, c := range f.Cases {
		tab.AddRow(c,
			fmt.Sprintf("%.1f", f.DCOriginal[i]),
			fmt.Sprintf("%.1f", f.HealedOriginal[i]),
			fmt.Sprintf("%.1f", f.HealedNewEdges[i]),
			fmt.Sprintf("%.1f", f.OursOriginal[i]))
	}
	return tab
}

// Fig8Result counts stitch errors above metrics.StitchThreshold per
// method (the red boxes of Fig. 8).
type Fig8Result struct {
	Methods []string
	Cases   []string
	// Counts[caseIdx][methodIdx]
	Counts [][]int
}

// RunFig8 counts per-crossing stitch errors for every Table 1 method.
func (e *Env) RunFig8(progress func(string)) (*Fig8Result, error) {
	out := &Fig8Result{}
	for _, m := range Methods {
		out.Methods = append(out.Methods, m.Name)
	}
	for _, clip := range e.Clips {
		var row []int
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
				return nil, err
			}
			row = append(row, metrics.CountAbove(r.Errors, metrics.StitchThreshold))
		}
		out.Cases = append(out.Cases, clip.ID)
		out.Counts = append(out.Counts, row)
	}
	return out, nil
}

// Render builds the Fig. 8 table.
func (f *Fig8Result) Render() *report.Table {
	headers := append([]string{"case"}, f.Methods...)
	tab := report.New(headers...)
	totals := make([]int, len(f.Methods))
	for i, c := range f.Cases {
		cells := []string{c}
		for j, n := range f.Counts[i] {
			cells = append(cells, fmt.Sprintf("%d", n))
			totals[j] += n
		}
		tab.AddRow(cells...)
	}
	cells := []string{"Total"}
	for _, n := range totals {
		cells = append(cells, fmt.Sprintf("%d", n))
	}
	tab.AddRow(cells...)
	return tab
}

// SpeedupResult is the Section 4 parallelism experiment: ours on 1..K
// simulated devices.
type SpeedupResult struct {
	Devices []int
	TAT     []time.Duration
	Speedup []float64
}

// RunSpeedup measures the multigrid-Schwarz TAT on growing clusters,
// averaged over the first `cases` clips of the suite. It runs at pool
// width 1, as results/ is recorded, and restores the width afterwards:
// a device solves ⌊width/devices⌋ tiles side by side, so at a wider
// pool the one-device baseline would pack more lanes than the larger
// clusters and the ratio would no longer measure device parallelism.
func (e *Env) RunSpeedup(maxDevices, cases int, progress func(string)) (*SpeedupResult, error) {
	defer parallel.SetWorkers(parallel.Workers())
	parallel.SetWorkers(1)
	if cases > len(e.Clips) {
		cases = len(e.Clips)
	}
	out := &SpeedupResult{}
	var base float64
	for d := 1; d <= maxDevices; d++ {
		var total time.Duration
		for _, clip := range e.Clips[:cases] {
			if progress != nil {
				progress(fmt.Sprintf("%d device(s) / %s", d, clip.ID))
			}
			cl, err := device.NewCluster(d, 0)
			if err != nil {
				return nil, err
			}
			cfg := e.BaseConfig()
			cfg.Cluster = cl
			r, err := core.MultigridSchwarz(cfg, clip.Target)
			if err != nil {
				return nil, err
			}
			total += r.TAT
		}
		if d == 1 {
			base = total.Seconds()
		}
		out.Devices = append(out.Devices, d)
		out.TAT = append(out.TAT, total/time.Duration(cases))
		out.Speedup = append(out.Speedup, base/total.Seconds())
	}
	return out, nil
}

// Render builds the speedup table.
func (s *SpeedupResult) Render() *report.Table {
	tab := report.New("devices", "TAT", "speedup")
	for i, d := range s.Devices {
		tab.AddRow(fmt.Sprintf("%d", d), s.TAT[i].Round(time.Millisecond).String(), fmt.Sprintf("%.2fx", s.Speedup[i]))
	}
	return tab
}

// PenaltyResult is the Section 2.3 motivation experiment per solver.
type PenaltyResult struct {
	Solvers  []string
	Single   []float64
	Cropped  []float64
	Increase []float64
}

// RunPenalty measures the tile-assembly L2 penalty for both baseline
// solvers on the first clip of the suite.
func (e *Env) RunPenalty(progress func(string)) (*PenaltyResult, error) {
	out := &PenaltyResult{}
	target := e.Clips[0].Target
	solvers := []opt.Solver{opt.NewMultiLevel(e.Sim), opt.NewLevelSet(e.Sim)}
	for _, s := range solvers {
		if progress != nil {
			progress(s.Name())
		}
		cfg := e.BaseConfig()
		cfg.Solver = s
		pen, err := core.TileAssemblyPenalty(cfg, target)
		if err != nil {
			return nil, err
		}
		out.Solvers = append(out.Solvers, s.Name())
		out.Single = append(out.Single, pen.SingleTileL2)
		out.Cropped = append(out.Cropped, pen.AssembledL2)
		out.Increase = append(out.Increase, pen.Increase())
	}
	return out, nil
}

// Render builds the penalty table.
func (p *PenaltyResult) Render() *report.Table {
	tab := report.New("solver", "single-tile L2", "cropped-from-assembly L2", "increase")
	for i, s := range p.Solvers {
		tab.AddRow(s,
			fmt.Sprintf("%.0f", p.Single[i]),
			fmt.Sprintf("%.0f", p.Cropped[i]),
			fmt.Sprintf("%+.0f", p.Increase[i]))
	}
	return tab
}

// AblationResult sweeps the design choices DESIGN.md calls out.
type AblationResult struct {
	Variants []string
	L2       []float64
	Stitch   []float64
	TATSec   []float64
}

// RunAblations executes the design-choice sweep on the first clip.
func (e *Env) RunAblations(progress func(string)) (*AblationResult, error) {
	target := e.Clips[0].Target
	variants := []struct {
		name string
		mod  func(*core.Config)
	}{
		{"ours (default)", func(c *core.Config) {}},
		{"no coarse grid", func(c *core.Config) {
			c.CoarseScale = 0
			c.FineIters += c.CoarseIters
		}},
		{"no refine pass", func(c *core.Config) { c.RefineIters = 0 }},
		{"single fine stage", func(c *core.Config) { c.FineStages = 1 }},
		{"hard RAS assembly", func(c *core.Config) { c.BlendWidth = 0 }},
		{"half blend band", func(c *core.Config) { c.BlendWidth = c.Margin }},
		{"no coarse cleanup", func(c *core.Config) { c.CoarseClean = 0 }},
	}
	out := &AblationResult{}
	for _, v := range variants {
		if progress != nil {
			progress(v.name)
		}
		cfg := e.BaseConfig()
		v.mod(&cfg)
		r, err := core.MultigridSchwarz(cfg, target)
		if err != nil {
			return nil, fmt.Errorf("bench: ablation %q: %w", v.name, err)
		}
		out.Variants = append(out.Variants, v.name)
		out.L2 = append(out.L2, r.L2)
		out.Stitch = append(out.Stitch, r.StitchLoss)
		out.TATSec = append(out.TATSec, r.TAT.Seconds())
	}
	return out, nil
}

// Render builds the ablation table.
func (a *AblationResult) Render() *report.Table {
	tab := report.New("variant", "L2", "stitch", "TAT(s)")
	for i, v := range a.Variants {
		tab.AddRow(v,
			fmt.Sprintf("%.0f", a.L2[i]),
			fmt.Sprintf("%.1f", a.Stitch[i]),
			fmt.Sprintf("%.2f", a.TATSec[i]))
	}
	return tab
}
