package imgio

import (
	"bytes"
	"image/png"
	"os"
	"path/filepath"
	"testing"

	"mgsilt/internal/grid"
	"mgsilt/internal/metrics"
)

func gradientMat() *grid.Mat {
	m := grid.NewMat(4, 8)
	for y := 0; y < 4; y++ {
		for x := 0; x < 8; x++ {
			m.Set(y, x, float64(x)/7)
		}
	}
	return m
}

func TestClampByte(t *testing.T) {
	cases := []struct {
		in   float64
		want uint8
	}{{-1, 0}, {0, 0}, {0.5, 128}, {1, 255}, {2, 255}}
	for _, c := range cases {
		if got := clampByte(c.in); got != c.want {
			t.Fatalf("clampByte(%v)=%d want %d", c.in, got, c.want)
		}
	}
}

func TestToGray(t *testing.T) {
	img := ToGray(gradientMat())
	if img.Bounds().Dx() != 8 || img.Bounds().Dy() != 4 {
		t.Fatalf("bounds %v", img.Bounds())
	}
	if img.GrayAt(0, 0).Y != 0 || img.GrayAt(7, 0).Y != 255 {
		t.Fatalf("gradient endpoints %d %d", img.GrayAt(0, 0).Y, img.GrayAt(7, 0).Y)
	}
}

func TestWritePNGRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePNG(&buf, gradientMat()); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bounds().Dx() != 8 || img.Bounds().Dy() != 4 {
		t.Fatalf("decoded bounds %v", img.Bounds())
	}
}

func TestWritePGMHeaderAndSize(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePGM(&buf, gradientMat()); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if !bytes.HasPrefix(b, []byte("P5\n8 4\n255\n")) {
		t.Fatalf("header %q", b[:12])
	}
	if len(b) != len("P5\n8 4\n255\n")+32 {
		t.Fatalf("payload size %d", len(b))
	}
}

func TestSavePNGAndPGM(t *testing.T) {
	dir := t.TempDir()
	pngPath := filepath.Join(dir, "m.png")
	if err := SavePNG(pngPath, gradientMat()); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(pngPath); err != nil || fi.Size() == 0 {
		t.Fatalf("file %s missing or empty", pngPath)
	}
}

func TestSavePNGBadPath(t *testing.T) {
	if err := SavePNG("/nonexistent-dir/x.png", gradientMat()); err == nil {
		t.Fatal("expected error")
	}
}

func TestOverlayMarksOnlyAboveThreshold(t *testing.T) {
	mask := grid.NewMat(32, 32)
	for i := range mask.Data {
		mask.Data[i] = 0.5
	}
	errs := []metrics.StitchError{
		{Y: 8, X: 8, Loss: 100},
		{Y: 24, X: 24, Loss: 1},
	}
	out := Overlay(mask, errs, 10, 3)
	// Box corner of the flagged error is white.
	if out.At(5, 8) != 1 {
		t.Fatal("flagged error not boxed")
	}
	// Un-flagged error area stays at the dimmed mask value.
	if out.At(21, 24) == 1 {
		t.Fatal("below-threshold error was boxed")
	}
	// Original mask not mutated.
	if mask.At(5, 8) != 0.5 {
		t.Fatal("overlay mutated the input")
	}
}

func TestOverlayBoxClipping(t *testing.T) {
	mask := grid.NewMat(8, 8)
	// Error at the corner: drawing must not panic.
	out := Overlay(mask, []metrics.StitchError{{Y: 0, X: 0, Loss: 99}}, 1, 4)
	if out == nil {
		t.Fatal("nil overlay")
	}
}
