// Package imgio writes masks, targets and wafer images to disk for
// visual inspection (the Fig. 1/6/7/8-style views). PNG output uses
// the standard library encoder; WritePGM serves the job service's
// mask download.
package imgio

import (
	"bufio"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"os"

	"mgsilt/internal/grid"
	"mgsilt/internal/metrics"
)

// clampByte maps v in [0,1] to 0..255.
func clampByte(v float64) uint8 {
	switch {
	case v <= 0:
		return 0
	case v >= 1:
		return 255
	}
	return uint8(v*255 + 0.5)
}

// ToGray converts a [0,1] matrix to a grayscale image.
func ToGray(m *grid.Mat) *image.Gray {
	img := image.NewGray(image.Rect(0, 0, m.W, m.H))
	for y := 0; y < m.H; y++ {
		row := m.Row(y)
		for x := 0; x < m.W; x++ {
			img.SetGray(x, y, color.Gray{Y: clampByte(row[x])})
		}
	}
	return img
}

// WritePNG encodes m as a grayscale PNG.
func WritePNG(w io.Writer, m *grid.Mat) error {
	return png.Encode(w, ToGray(m))
}

// SavePNG writes m to the named PNG file.
func SavePNG(path string, m *grid.Mat) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("imgio: %w", err)
	}
	defer f.Close()
	if err := WritePNG(f, m); err != nil {
		return fmt.Errorf("imgio: encode %s: %w", path, err)
	}
	return f.Close()
}

// WritePGM encodes m as a binary (P5) PGM image.
func WritePGM(w io.Writer, m *grid.Mat) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", m.W, m.H); err != nil {
		return err
	}
	for y := 0; y < m.H; y++ {
		row := m.Row(y)
		for x := 0; x < m.W; x++ {
			if err := bw.WriteByte(clampByte(row[x])); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Overlay renders a mask in gray with stitch errors above the
// threshold marked as white boxes (the red boxes of Fig. 8, in
// grayscale) and returns the composite.
func Overlay(mask *grid.Mat, errors []metrics.StitchError, threshold float64, boxHalf int) *grid.Mat {
	out := mask.Clone().Scale(0.6)
	for _, e := range errors {
		if e.Loss <= threshold {
			continue
		}
		drawBox(out, e.Y, e.X, boxHalf)
	}
	return out
}

func drawBox(m *grid.Mat, cy, cx, r int) {
	set := func(y, x int) {
		if y >= 0 && y < m.H && x >= 0 && x < m.W {
			m.Set(y, x, 1)
		}
	}
	for d := -r; d <= r; d++ {
		set(cy-r, cx+d)
		set(cy+r, cx+d)
		set(cy+d, cx-r)
		set(cy+d, cx+r)
	}
}
