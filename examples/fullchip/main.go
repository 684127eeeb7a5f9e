// Fullchip: the Table 1 quality argument on one clip — the
// multigrid-Schwarz flow should match the expensive full-chip ILT on
// L2/PVBand while the traditional divide-and-conquer flow loses
// boundary continuity. Also demonstrates the Section 2.3 motivation
// experiment (tile-assembly L2 penalty).
package main

import (
	"fmt"
	"log"

	"mgsilt/internal/core"
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
	clip, err := layout.Generate(layout.DefaultConfig(2*n, 11))
	if err != nil {
		log.Fatal(err)
	}
	base := core.DefaultConfig(sim, 2*n, 40)

	fmt.Printf("%-22s %8s %8s %8s %10s\n", "method", "L2", "PVBand", "stitch", "TAT")
	print := func(r *core.Result) {
		fmt.Printf("%-22s %8.0f %8.0f %8.1f %10v\n", r.Method, r.L2, r.PVBand, r.StitchLoss, r.TAT.Round(1e6))
	}

	dcCfg := base
	dcCfg.Solver = opt.NewMultiLevel(sim)
	dc, err := core.DivideAndConquer(dcCfg, clip.Target)
	if err != nil {
		log.Fatal(err)
	}
	print(dc)

	fcCfg := base
	fcCfg.Solver = opt.NewMultiLevel(sim) // on the whole clip: the 2 + log2(clip/N) pyramid
	fc, err := core.FullChip(fcCfg, clip.Target)
	if err != nil {
		log.Fatal(err)
	}
	print(fc)

	ours, err := core.MultigridSchwarz(base, clip.Target)
	if err != nil {
		log.Fatal(err)
	}
	print(ours)

	// Section 2.3: how much worse does the centre tile get when its
	// mask is cropped from the assembly instead of optimised alone?
	pen, err := core.TileAssemblyPenalty(dcCfg, clip.Target)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntile-assembly penalty (Section 2.3): single %.0f -> cropped %.0f (increase %+.0f)\n",
		pen.SingleTileL2, pen.AssembledL2, pen.Increase())

	// Edge placement error, the standard OPC acceptance view of the
	// same quality comparison.
	fmt.Println()
	for _, r := range []*core.Result{dc, fc, ours} {
		e, err := metrics.EPE(sim, r.Mask.Binarize(0.5), clip.Target, metrics.DefaultEPEConfig())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s EPE: mean |epe| %.2f px, max %.1f, %d/%d violations (%d lost)\n",
			r.Method, e.MeanAbs, e.MaxAbs, e.Violations, e.Samples, e.Lost)
	}
}
