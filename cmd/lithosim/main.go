// Command lithosim runs the stand-alone lithography simulation: given
// a mask image (PNG, grayscale; values above 0.5 are mask material) or
// a generated clip, it prints the wafer image and process-window
// metrics, mirroring how the ICCAD-2013 contest tool is used as a
// stand-alone checker.
//
// It runs two Hopkins sums, like the final inspection of the flows: the
// nominal-focus aerial image, printed at the nominal dose and at the
// outer corner's, and the defocused one of the inner corner.
package main

import (
	"errors"
	"flag"
	"fmt"
	"image/png"
	"io"
	"os"
	"path/filepath"

	"mgsilt/internal/fft"
	"mgsilt/internal/grid"
	"mgsilt/internal/imgio"
	"mgsilt/internal/layout"
	"mgsilt/internal/litho"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "lithosim:", err)
		os.Exit(1)
	}
}

// run parses args, simulates the mask and writes the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("lithosim", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 128, "native simulator grid size (power of two)")
		maskPath = fs.String("mask", "", "PNG mask to simulate (default: generated clip target)")
		seed     = fs.Int64("seed", 1, "clip seed when no mask is given")
		outDir   = fs.String("out", "", "directory for aerial/wafer PNG dumps (optional)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	sim, err := litho.NewStandard(*n)
	if err != nil {
		return err
	}

	var mask *grid.Mat
	if *maskPath != "" {
		mask, err = loadPNG(*maskPath)
		if err != nil {
			return err
		}
		if mask.H != mask.W || mask.H%*n != 0 || !fft.IsPow2(mask.H / *n) {
			return fmt.Errorf("mask %dx%d is not a square power-of-two multiple of N=%d", mask.H, mask.W, *n)
		}
	} else {
		clip, err := layout.Generate(layout.DefaultConfig(2**n, *seed))
		if err != nil {
			return err
		}
		mask = clip.Target
	}

	aerial := sim.Aerial(mask, sim.Nominal())
	nomWafer := sim.PrintResist(aerial, sim.Nominal().Dose)
	outer := sim.PrintResist(aerial, sim.Outer().Dose)
	inner := sim.Wafer(mask, sim.Inner())

	fmt.Fprintf(stdout, "mask          : %dx%d, %d mask pixels\n", mask.H, mask.W, mask.CountAbove(0.5))
	fmt.Fprintf(stdout, "aerial max    : %.3f (threshold %.3f)\n", aerial.MaxAbs(), sim.Config().Threshold)
	fmt.Fprintf(stdout, "printed area  : %.0f px (nominal)\n", nomWafer.Sum())
	fmt.Fprintf(stdout, "PVBand        : %.0f px\n", inner.L2Diff(outer))
	fmt.Fprintf(stdout, "self L2       : %.0f px (wafer vs binarised mask as target)\n",
		nomWafer.L2Diff(mask.Binarize(0.5)))

	if *outDir == "" {
		return nil
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	norm := aerial.Clone().Scale(1 / max(aerial.MaxAbs(), 1e-9))
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
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	return nil
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
