package bench

import (
	"fmt"

	"mgsilt/internal/core"
	"mgsilt/internal/mrc"
	"mgsilt/internal/opt"
	"mgsilt/internal/report"
	"mgsilt/internal/tile"
)

// MRCResult quantifies the paper's Section 2.3 claim that stitching
// discontinuities violate the manufacturability rule check: mask-shop
// rule violations within a band around the stitch lines, per method.
type MRCResult struct {
	Methods []string
	Cases   []string
	// NearLine[caseIdx][methodIdx]: violations inside the band.
	NearLine [][]int
	// Total[caseIdx][methodIdx]: violations anywhere on the mask.
	Total [][]int
}

// RunMRC checks divide-and-conquer (Multi-level solver), full-chip and
// the multigrid-Schwarz flow against the default mask rules.
func (e *Env) RunMRC(progress func(string)) (*MRCResult, error) {
	rules := mrc.DefaultRules()
	band := e.BaseConfig().Margin / 2
	out := &MRCResult{Methods: []string{"Multi-level-ILT(D&C)", "Full-chip", "Ours"}}

	part, err := tile.Part(e.Scale.Clip, e.Scale.Clip, e.Scale.N, e.Scale.N/4)
	if err != nil {
		return nil, err
	}
	var vlines, hlines []int
	for _, l := range part.StitchLines() {
		if l.Vertical {
			vlines = append(vlines, l.Pos)
		} else {
			hlines = append(hlines, l.Pos)
		}
	}

	for _, clip := range e.Clips {
		runs := []func() (*core.Result, error){
			func() (*core.Result, error) {
				cfg := e.BaseConfig()
				cfg.Solver = opt.NewMultiLevel(e.Sim)
				return core.DivideAndConquer(cfg, clip.Target)
			},
			func() (*core.Result, error) {
				cfg := e.BaseConfig()
				cfg.Solver = core.FullChipSolver(e.Sim, e.Scale.Clip)
				return core.FullChip(cfg, clip.Target)
			},
			func() (*core.Result, error) {
				return core.MultigridSchwarz(e.BaseConfig(), clip.Target)
			},
		}
		var nearRow, totalRow []int
		for i, run := range runs {
			if progress != nil {
				progress(fmt.Sprintf("%s / %s", clip.ID, out.Methods[i]))
			}
			res, err := run()
			if err != nil {
				return nil, err
			}
			rep, err := mrc.Check(res.Mask.Binarize(0.5), rules)
			if err != nil {
				return nil, err
			}
			near := rep.CheckNearLines(vlines, hlines, band)
			nearRow = append(nearRow, near.Total())
			totalRow = append(totalRow, rep.Total())
		}
		out.Cases = append(out.Cases, clip.ID)
		out.NearLine = append(out.NearLine, nearRow)
		out.Total = append(out.Total, totalRow)
	}
	return out, nil
}

// Render builds the MRC table.
func (m *MRCResult) Render() *report.Table {
	headers := []string{"case"}
	for _, name := range m.Methods {
		headers = append(headers, name+".near-line", name+".total")
	}
	tab := report.New(headers...)
	for i, c := range m.Cases {
		cells := []string{c}
		for j := range m.Methods {
			cells = append(cells, fmt.Sprintf("%d", m.NearLine[i][j]), fmt.Sprintf("%d", m.Total[i][j]))
		}
		tab.AddRow(cells...)
	}
	return tab
}
