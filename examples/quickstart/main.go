// Quickstart: build the synthetic optics, generate one M1 clip, run
// the multigrid-Schwarz ILT flow on it and print the paper's three
// metrics. This is the minimal end-to-end use of the library.
package main

import (
	"fmt"
	"log"

	"mgsilt/internal/core"
	"mgsilt/internal/layout"
	"mgsilt/internal/litho"
)

func main() {
	// 1. Optics: a synthetic partially-coherent kernel set (the
	//    stand-in for the ICCAD-2013 TCC kernels) at native grid N=64,
	//    plus a defocused set for the process-window corners.
	const n = 64
	sim, err := litho.NewStandard(n)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Workload: one deterministic synthetic M1 clip of size 2N —
	//    the same clip-to-simulator proportion as the paper's
	//    4096-on-2048 setup.
	clip, err := layout.Generate(layout.DefaultConfig(2*n, 7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clip %s: %dx%d px, drawn area %d px\n", clip.ID, clip.Target.H, clip.Target.W, clip.AreaPx())

	// 3. Optimise: the full multigrid-Schwarz flow (coarse grid →
	//    staged fine-grid Schwarz → multi-colour refine) with a small
	//    iteration budget to keep the example quick.
	cfg := core.DefaultConfig(sim, 2*n, 30)
	result, err := core.MultigridSchwarz(cfg, clip.Target)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Report Definitions 1-3.
	fmt.Printf("L2 loss     : %.0f px\n", result.L2)
	fmt.Printf("PVBand      : %.0f px\n", result.PVBand)
	fmt.Printf("stitch loss : %.1f over %d crossings\n", result.StitchLoss, len(result.Errors))
	fmt.Printf("runtime     : %v\n", result.TAT.Round(1e6))
}
