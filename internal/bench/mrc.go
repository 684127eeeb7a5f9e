package bench

import (
	"fmt"

	"mgsilt/internal/mrc"
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
	dc := Methods[1]
	dc.Name += "(D&C)"
	methods := []Method{dc, Methods[2], Methods[3]}
	out := &MRCResult{}
	for _, m := range methods {
		out.Methods = append(out.Methods, m.Name)
	}

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
		var nearRow, totalRow []int
		for _, m := range methods {
			if progress != nil {
				progress(fmt.Sprintf("%s / %s", clip.ID, m.Name))
			}
			res, err := e.Run(m, clip.Target, nil)
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
