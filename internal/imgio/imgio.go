// Package imgio writes masks, targets and wafer images to disk for
// visual inspection (the Fig. 1/6/7/8-style views). PNG output uses
// the standard library encoder; PGM is provided for quick text-tool
// pipelines.
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

// MaxPGMDim bounds the accepted width/height of a parsed PGM at the
// paper's 4096-per-clip scale — the largest grid this repository
// produces. The cap keeps a hostile header ("P5 999999999 999999999
// 255") from allocating the product before any pixel data is read,
// and keeps the worst in-cap allocation (4096² float64 = 128 MiB)
// survivable for the fuzz harness.
const MaxPGMDim = 1 << 12

// ReadPGM parses a binary (P5) PGM image into a [0,1] matrix. It
// accepts the full format: '#' comments anywhere in the header,
// arbitrary whitespace between tokens, and any maxval in [1,255]
// (pixels are scaled by 1/maxval). Dimensions are capped at MaxPGMDim
// per side. It is the inverse of WritePGM for the masks this
// repository writes.
func ReadPGM(r io.Reader) (*grid.Mat, error) {
	br := bufio.NewReader(r)
	var magic string
	if _, err := readPGMToken(br, &magic); err != nil {
		return nil, fmt.Errorf("imgio: pgm: %w", err)
	}
	if magic != "P5" {
		return nil, fmt.Errorf("imgio: pgm: magic %q, want P5", magic)
	}
	var w, h, maxval int
	for _, dst := range []*int{&w, &h, &maxval} {
		var tok string
		if _, err := readPGMToken(br, &tok); err != nil {
			return nil, fmt.Errorf("imgio: pgm: %w", err)
		}
		if _, err := fmt.Sscanf(tok, "%d", dst); err != nil {
			return nil, fmt.Errorf("imgio: pgm: bad header token %q: %w", tok, err)
		}
	}
	switch {
	case w < 1 || h < 1:
		return nil, fmt.Errorf("imgio: pgm: bad dimensions %dx%d", w, h)
	case w > MaxPGMDim || h > MaxPGMDim:
		return nil, fmt.Errorf("imgio: pgm: %dx%d exceeds the %d-pixel side cap", w, h, MaxPGMDim)
	case maxval < 1 || maxval > 255:
		return nil, fmt.Errorf("imgio: pgm: maxval %d outside [1,255]", maxval)
	}
	// Exactly one whitespace byte separates the header from the raster;
	// readPGMToken already consumed it while finding the token's end.
	m := grid.NewMat(h, w)
	buf := make([]byte, w)
	scale := 1 / float64(maxval)
	for y := 0; y < h; y++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("imgio: pgm: raster row %d: %w", y, err)
		}
		row := m.Row(y)
		for x, b := range buf {
			v := float64(b) * scale
			if v > 1 {
				v = 1 // sample above maxval: clamp rather than reject
			}
			row[x] = v
		}
	}
	return m, nil
}

// readPGMToken scans the next whitespace-delimited header token,
// skipping '#' comments, and consumes the single delimiter after it.
func readPGMToken(br *bufio.Reader, out *string) (int, error) {
	tok := make([]byte, 0, 16)
	inComment := false
	for {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && len(tok) > 0 {
				*out = string(tok)
				return len(tok), nil
			}
			return 0, fmt.Errorf("truncated header: %w", err)
		}
		switch {
		case inComment:
			if b == '\n' {
				inComment = false
			}
		case b == '#':
			inComment = true
		case b == ' ' || b == '\t' || b == '\n' || b == '\r' || b == '\v' || b == '\f':
			if len(tok) > 0 {
				*out = string(tok)
				return len(tok), nil
			}
		default:
			tok = append(tok, b)
			if len(tok) > 32 {
				return 0, fmt.Errorf("header token longer than 32 bytes")
			}
		}
	}
}

// SavePGM writes m to the named PGM file.
func SavePGM(path string, m *grid.Mat) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("imgio: %w", err)
	}
	defer f.Close()
	if err := WritePGM(f, m); err != nil {
		return fmt.Errorf("imgio: encode %s: %w", path, err)
	}
	return f.Close()
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
