// Command lithosim runs the stand-alone lithography simulation: given
// a mask image (PNG, grayscale; values above 0.5 are mask material) or
// a generated clip, it prints the wafer image and process-window
// metrics, mirroring how the ICCAD-2013 contest tool is used as a
// stand-alone checker.
package main

import (
	"flag"
	"fmt"
	"image/png"
	"os"
	"path/filepath"

	"mgsilt/internal/fft"
	"mgsilt/internal/grid"
	"mgsilt/internal/imgio"
	"mgsilt/internal/layout"
	"mgsilt/internal/litho"
	"mgsilt/internal/metrics"
)

func main() {
	var (
		n        = flag.Int("n", 128, "native simulator grid size (power of two)")
		maskPath = flag.String("mask", "", "PNG mask to simulate (default: generated clip target)")
		seed     = flag.Int64("seed", 1, "clip seed when no mask is given")
		outDir   = flag.String("out", "", "directory for aerial/wafer PNG dumps (optional)")
	)
	flag.Parse()

	sim, err := litho.NewStandard(*n)
	if err != nil {
		fatal(err)
	}

	var mask *grid.Mat
	if *maskPath != "" {
		mask, err = loadPNG(*maskPath)
		if err != nil {
			fatal(err)
		}
		if mask.H != mask.W || mask.H%*n != 0 || !fft.IsPow2(mask.H / *n) {
			fatal(fmt.Errorf("mask %dx%d is not a square power-of-two multiple of N=%d", mask.H, mask.W, *n))
		}
	} else {
		clip, err := layout.Generate(layout.DefaultConfig(2**n, *seed))
		if err != nil {
			fatal(err)
		}
		mask = clip.Target
	}

	aerial := sim.Aerial(mask, sim.Nominal())
	nomWafer := sim.PrintResist(aerial, 1)
	inner := sim.Wafer(mask, sim.Inner())
	outer := sim.Wafer(mask, sim.Outer())

	fmt.Printf("mask          : %dx%d, %d mask pixels\n", mask.H, mask.W, mask.CountAbove(0.5))
	fmt.Printf("aerial max    : %.3f (threshold %.3f)\n", aerial.MaxAbs(), sim.Config().Threshold)
	fmt.Printf("printed area  : %.0f px (nominal)\n", nomWafer.Sum())
	fmt.Printf("PVBand        : %.0f px\n", inner.L2Diff(outer))
	fmt.Printf("self L2       : %.0f px (wafer vs binarised mask as target)\n",
		metrics.L2(sim, mask, mask.Binarize(0.5)))

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		norm := aerial.Clone().Scale(1 / maxOf(aerial.MaxAbs(), 1e-9))
		dumps := []struct {
			name string
			m    *grid.Mat
		}{
			{"aerial.png", norm},
			{"wafer.png", nomWafer},
			{"wafer_inner.png", inner},
			{"wafer_outer.png", outer},
		}
		for _, d := range dumps {
			path := filepath.Join(*outDir, d.name)
			if err := imgio.SavePNG(path, d.m); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", path)
		}
	}
}

func maxOf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func loadPNG(path string) (*grid.Mat, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	img, err := png.Decode(f)
	if err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	b := img.Bounds()
	m := grid.NewMat(b.Dy(), b.Dx())
	for y := 0; y < b.Dy(); y++ {
		for x := 0; x < b.Dx(); x++ {
			r, g, bl, _ := img.At(b.Min.X+x, b.Min.Y+y).RGBA()
			gray := (float64(r) + float64(g) + float64(bl)) / 3 / 65535
			m.Set(y, x, gray)
		}
	}
	return m, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lithosim:", err)
	os.Exit(1)
}
