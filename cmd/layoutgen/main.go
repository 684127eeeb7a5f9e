// Command layoutgen emits the synthetic M1 benchmark clips as PNG
// images plus a summary of their geometry, so the evaluation data the
// experiments run on can be inspected and archived.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mgsilt/internal/imgio"
	"mgsilt/internal/layout"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "layoutgen:", err)
		os.Exit(1)
	}
}

// run parses args, writes one .png and one .rects file per clip into
// -out, and prints the geometry summary to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("layoutgen", flag.ContinueOnError)
	var (
		count   = fs.Int("count", 20, "number of clips")
		size    = fs.Int("size", 256, "clip side length in pixels")
		seed    = fs.Int64("seed", 1000, "suite base seed")
		outDir  = fs.String("out", "clips", "output directory")
		repeat  = fs.Bool("repeat-cells", false, "generate repeated standard-cell clips instead of random routing")
		cell    = fs.Int("cell", 32, "repeat-cells: cell placement pitch in pixels")
		library = fs.Int("library", 3, "repeat-cells: distinct cells in the library")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var clips []*layout.Clip
	if *repeat {
		for i := 0; i < *count; i++ {
			c, err := layout.GenerateRepeat(layout.RepeatConfig{
				Size: *size, Seed: *seed + int64(i) + 1, Cell: *cell, Library: *library,
			})
			if err != nil {
				return err
			}
			clips = append(clips, c)
		}
	} else {
		var err error
		if clips, err = layout.Suite(*count, *size, *seed); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%-8s %-10s %-10s %s\n", "clip", "area(px)", "density", "rects")
	for _, c := range clips {
		if err := imgio.SavePNG(filepath.Join(*outDir, c.ID+".png"), c.Target); err != nil {
			return err
		}
		rf, err := os.Create(filepath.Join(*outDir, c.ID+".rects"))
		if err != nil {
			return err
		}
		if err := layout.WriteRects(rf, c); err != nil {
			rf.Close()
			return err
		}
		if err := rf.Close(); err != nil {
			return err
		}
		density := float64(c.AreaPx()) / float64(*size**size)
		fmt.Fprintf(stdout, "%-8s %-10d %-10.3f %d\n", c.ID, c.AreaPx(), density, len(c.Rects))
	}
	fmt.Fprintf(stdout, "wrote %d clips to %s\n", len(clips), *outDir)
	return nil
}
