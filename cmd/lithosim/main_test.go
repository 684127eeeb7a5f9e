package main

import (
	"image/png"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mgsilt/internal/grid"
	"mgsilt/internal/imgio"
)

// TestGoldenReport pins the printed report of two generated clips. The
// seed-3 clip at N=32 holds no wire, so it pins the dark field; the
// N=64 one prints. amd64 only, like the golden hashes of the engine.
func TestGoldenReport(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden reports are recorded on amd64, not %s", runtime.GOARCH)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "32", "-seed", "3"}, `mask          : 64x64, 0 mask pixels
aerial max    : 0.000 (threshold 0.225)
printed area  : 0 px (nominal)
PVBand        : 0 px
self L2       : 0 px (wafer vs binarised mask as target)
`},
		{[]string{"-n", "64", "-seed", "3"}, `mask          : 128x128, 1960 mask pixels
aerial max    : 0.354 (threshold 0.225)
printed area  : 1661 px (nominal)
PVBand        : 593 px
self L2       : 409 px (wafer vs binarised mask as target)
`},
	} {
		var out strings.Builder
		if err := run(c.args, &out); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		if out.String() != c.want {
			t.Errorf("%v printed\n%s\nwant\n%s", c.args, out.String(), c.want)
		}
	}
}

// TestOutWritesImages: -out writes the aerial image and the three
// wafer images as PNGs of the mask's size.
func TestOutWritesImages(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-n", "32", "-seed", "1", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"aerial.png", "wafer.png", "wafer_inner.png", "wafer_outer.png"} {
		path := filepath.Join(dir, name)
		if !strings.Contains(out.String(), "wrote "+path+"\n") {
			t.Errorf("report does not list %s:\n%s", path, out.String())
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		img, err := png.Decode(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b := img.Bounds(); b.Dx() != 64 || b.Dy() != 64 {
			t.Errorf("%s is %dx%d, want the 64x64 clip", name, b.Dx(), b.Dy())
		}
	}
}

// TestBadMaskShape: a mask that is not a power-of-two multiple of N is
// an error, not a panic in the simulator.
func TestBadMaskShape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mask.png")
	if err := imgio.SavePNG(path, grid.NewMat(48, 48)); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-n", "32", "-mask", path}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "not a square power-of-two multiple of N=32") {
		t.Fatalf("48x48 mask at N=32: error %v", err)
	}
}
