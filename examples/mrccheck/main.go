// Mrccheck: the manufacturability argument of Section 2.3 — stitch
// discontinuities from divide-and-conquer ILT produce mask-rule
// violations (sub-minimum necks, notches and slivers) concentrated at
// the tile boundaries; the multigrid-Schwarz flow removes them.
package main

import (
	"fmt"
	"log"

	"mgsilt/internal/core"
	"mgsilt/internal/layout"
	"mgsilt/internal/litho"
	"mgsilt/internal/mrc"
	"mgsilt/internal/opt"
	"mgsilt/internal/tile"
)

func main() {
	const n = 64
	sim, err := litho.NewStandard(n)
	if err != nil {
		log.Fatal(err)
	}
	clip, err := layout.Generate(layout.DefaultConfig(2*n, 9))
	if err != nil {
		log.Fatal(err)
	}
	base := core.DefaultConfig(sim, 2*n, 40)

	part, err := tile.Part(2*n, 2*n, base.TileSize, base.Margin)
	if err != nil {
		log.Fatal(err)
	}
	var vlines, hlines []int
	for _, l := range part.StitchLines() {
		if l.Vertical {
			vlines = append(vlines, l.Pos)
		} else {
			hlines = append(hlines, l.Pos)
		}
	}
	rules := mrc.DefaultRules()
	fmt.Printf("mask rules: min width %d px, min space %d px, min area %d px²\n\n",
		rules.MinWidth, rules.MinSpace, rules.MinArea)

	audit := func(res *core.Result) {
		rep, err := mrc.Check(res.Mask.Binarize(0.5), rules)
		if err != nil {
			log.Fatal(err)
		}
		near := rep.CheckNearLines(vlines, hlines, base.Margin/2)
		fmt.Printf("%-32s violations: %2d total (%d width, %d space, %d area), %d near stitch lines\n",
			res.Method, rep.Total(),
			len(rep.WidthViolations), len(rep.SpaceViolations), len(rep.AreaViolations),
			near.Total())
	}

	dcCfg := base
	dcCfg.Solver = opt.NewMultiLevel(sim)
	dc, err := core.DivideAndConquer(dcCfg, clip.Target)
	if err != nil {
		log.Fatal(err)
	}
	audit(dc)

	ours, err := core.MultigridSchwarz(base, clip.Target)
	if err != nil {
		log.Fatal(err)
	}
	audit(ours)
}
