package main

import (
	"image/png"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mgsilt/internal/layout"
)

// TestGoldenSummary pins the printed summary of a random-routing suite
// and of a standard-cell suite, and checks that every clip it lists was
// written as a PNG of the clip's size and as a .rects file that reads
// back to the same geometry.
func TestGoldenSummary(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-size", "128", "-count", "3", "-seed", "3"}, `clip     area(px)   density    rects
case1    2480       0.151      6
case2    2630       0.161      5
case3    830        0.051      2
`},
		{[]string{"-size", "128", "-count", "2", "-seed", "3", "-repeat-cells", "-cell", "32", "-library", "2"}, `clip     area(px)   density    rects
cells-4  2368       0.145      48
cells-5  1952       0.119      40
`},
	} {
		dir := t.TempDir()
		var out strings.Builder
		if err := run(append(c.args, "-out", dir), &out); err != nil {
			t.Fatalf("%v: %v", c.args, err)
		}
		lines := strings.Split(strings.TrimSuffix(c.want, "\n"), "\n")
		want := c.want + "wrote " + strconv.Itoa(len(lines)-1) + " clips to " + dir + "\n"
		if out.String() != want {
			t.Errorf("%v printed\n%s\nwant\n%s", c.args, out.String(), want)
			continue
		}
		for _, line := range lines[1:] {
			id := strings.Fields(line)[0]
			checkClip(t, dir, id, line)
		}
	}
}

// checkClip reads back one written clip and compares it with its
// summary line.
func checkClip(t *testing.T, dir, id, line string) {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, id+".png"))
	if err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(f)
	f.Close()
	if err != nil {
		t.Fatalf("%s.png: %v", id, err)
	}
	if b := img.Bounds(); b.Dx() != 128 || b.Dy() != 128 {
		t.Errorf("%s.png is %dx%d, want 128x128", id, b.Dx(), b.Dy())
	}
	rf, err := os.Open(filepath.Join(dir, id+".rects"))
	if err != nil {
		t.Fatal(err)
	}
	clip, err := layout.ReadRects(rf)
	rf.Close()
	if err != nil {
		t.Fatalf("%s.rects: %v", id, err)
	}
	fields := strings.Fields(line)
	if clip.ID != id || strconv.Itoa(clip.AreaPx()) != fields[1] || strconv.Itoa(len(clip.Rects)) != fields[3] {
		t.Errorf("%s.rects reads back as %s with %d px in %d rects; summary says %q", id, clip.ID, clip.AreaPx(), len(clip.Rects), line)
	}
}

// TestBadArguments: an unparsable flag and a cell pitch that does not
// divide the clip are errors, and nothing is written for them.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-count", "many"},
		{"-size", "64", "-count", "1", "-repeat-cells", "-cell", "24"},
	} {
		dir := filepath.Join(t.TempDir(), "out")
		var out strings.Builder
		if err := run(append(args, "-out", dir), &out); err == nil {
			t.Errorf("%v: no error", args)
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("%v: created %s", args, dir)
		}
	}
}
