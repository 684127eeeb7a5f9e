package layout

import "testing"

func TestAdversarialSuite(t *testing.T) {
	for _, size := range []int{64, 128, 256} {
		for _, name := range []string{"line-end-forest", "isolated-contact", "giant-polygon"} {
			c, err := Adversarial(name, size)
			if err != nil {
				t.Fatal(err)
			}
			if c.Target.H != size || c.Target.W != size {
				t.Fatalf("%s@%d: target %dx%d", c.ID, size, c.Target.H, c.Target.W)
			}
			if c.AreaPx() == 0 {
				t.Fatalf("%s@%d: empty target", c.ID, size)
			}
			// Deterministic: a second build is bit-identical.
			again, err := Adversarial(c.ID, size)
			if err != nil {
				t.Fatal(err)
			}
			if !again.Target.Equal(c.Target) {
				t.Fatalf("%s@%d: not deterministic", c.ID, size)
			}
		}
	}
}

func TestAdversarialRejectsUnknown(t *testing.T) {
	if _, err := Adversarial("no-such-case", 128); err == nil {
		t.Fatal("unknown case accepted")
	}
	if _, err := Adversarial("giant-polygon", 32); err == nil {
		t.Fatal("undersized clip accepted")
	}
}

// TestGiantPolygonStraddlesTiles pins the case's defining property:
// at every power-of-two tile count the spine crosses every interior
// vertical tile boundary, so no decomposition can isolate the polygon
// in one tile.
func TestGiantPolygonStraddlesTiles(t *testing.T) {
	const size = 256
	clip, err := Adversarial("giant-polygon", size)
	if err != nil {
		t.Fatal(err)
	}
	mid := size / 2
	for _, tiles := range []int{2, 4, 8} {
		step := size / tiles
		for x := step; x < size; x += step {
			if clip.Target.At(mid, x-1) != 1 || clip.Target.At(mid, x) != 1 {
				t.Fatalf("spine does not straddle boundary x=%d at %d tiles", x, tiles)
			}
		}
	}
}

func TestIsolatedContactMostlyEmpty(t *testing.T) {
	clip, err := Adversarial("isolated-contact", 256)
	if err != nil {
		t.Fatal(err)
	}
	if a := clip.AreaPx(); a != 14*14 {
		t.Fatalf("contact area %d, want %d", a, 14*14)
	}
}
