// Stitching: the Fig. 8 experiment on one clip — compare boundary
// continuity of the traditional divide-and-conquer flow against the
// multigrid-Schwarz flow, print the per-crossing stitch errors, and
// write overlay images with the offending crossings boxed.
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	"mgsilt/internal/core"
	"mgsilt/internal/imgio"
	"mgsilt/internal/layout"
	"mgsilt/internal/litho"
	"mgsilt/internal/metrics"
	"mgsilt/internal/opt"
)

func main() {
	const n = 64
	sim, err := litho.NewStandard(n)
	if err != nil {
		log.Fatal(err)
	}
	clip, err := layout.Generate(layout.DefaultConfig(2*n, 3))
	if err != nil {
		log.Fatal(err)
	}

	base := core.DefaultConfig(sim, 2*n, 40)

	dcCfg := base
	dcCfg.Solver = opt.NewMultiLevel(sim) // the SRAF-heavy baseline of Table 1
	dc, err := core.DivideAndConquer(dcCfg, clip.Target)
	if err != nil {
		log.Fatal(err)
	}
	ours, err := core.MultigridSchwarz(base, clip.Target)
	if err != nil {
		log.Fatal(err)
	}

	show := func(r *core.Result) {
		fmt.Printf("\n%s\n", r.Method)
		fmt.Printf("  total stitch loss: %.1f, errors > %.0f: %d of %d crossings\n",
			r.StitchLoss, metrics.StitchThreshold,
			metrics.CountAbove(r.Errors, metrics.StitchThreshold), len(r.Errors))
		// Worst crossings first, Fig. 3 style.
		errs := append([]metrics.StitchError(nil), r.Errors...)
		sort.Slice(errs, func(i, j int) bool { return errs[i].Loss > errs[j].Loss })
		for i, e := range errs {
			if i == 5 {
				break
			}
			fmt.Printf("  crossing at (%3d,%3d): loss %.1f\n", e.Y, e.X, e.Loss)
		}
	}
	show(dc)
	show(ours)

	if err := os.MkdirAll("out", 0o755); err != nil {
		log.Fatal(err)
	}
	half := base.Stitch.Window / 2
	if err := imgio.SavePNG("out/dc_overlay.png",
		imgio.Overlay(dc.Mask.Binarize(0.5), dc.Errors, metrics.StitchThreshold, half)); err != nil {
		log.Fatal(err)
	}
	if err := imgio.SavePNG("out/ours_overlay.png",
		imgio.Overlay(ours.Mask.Binarize(0.5), ours.Errors, metrics.StitchThreshold, half)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote out/dc_overlay.png and out/ours_overlay.png (boxes mark stitch errors)")
}
