package tile

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mgsilt/internal/grid"
)

// paperGeometry mirrors the paper's setup at 1/8 scale: a 512-analog
// clip of 128, tiles of 64, margin 16 → 3×3 tiles, overlap 2·16.
func paperGeometry(t *testing.T) *Partition {
	t.Helper()
	p, err := Part(128, 128, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// filled returns an h×w matrix with every element v.
func filled(h, w int, v float64) *grid.Mat {
	m := grid.NewMat(h, w)
	for i := range m.Data {
		m.Data[i] = v
	}
	return m
}

func TestPartGeometry(t *testing.T) {
	p := paperGeometry(t)
	if p.Rows != 3 || p.Cols != 3 || len(p.Tiles) != 9 {
		t.Fatalf("got %dx%d tiles", p.Rows, p.Cols)
	}
	// Tile origins step by tile-2l = 32.
	if p.Tiles[1].X0 != 32 || p.Tiles[3].Y0 != 32 || p.Tiles[8].Y0 != 64 {
		t.Fatalf("bad origins: %+v", p.Tiles)
	}
	// Centre tile core is [48,80) in both axes.
	c := p.Tiles[4]
	if c.CoreY0 != 48 || c.CoreY1 != 80 || c.CoreX0 != 48 || c.CoreX1 != 80 {
		t.Fatalf("centre core %+v", c)
	}
	// Edge tiles own up to the layout border.
	if p.Tiles[0].CoreY0 != 0 || p.Tiles[0].CoreX0 != 0 {
		t.Fatalf("corner core %+v", p.Tiles[0])
	}
	if p.Tiles[8].CoreY1 != 128 || p.Tiles[8].CoreX1 != 128 {
		t.Fatalf("last core %+v", p.Tiles[8])
	}
}

func TestPartErrors(t *testing.T) {
	if _, err := Part(100, 100, 128, 16); err == nil {
		t.Fatal("tile larger than layout must fail")
	}
	if _, err := Part(128, 128, 64, 32); err == nil {
		t.Fatal("margin half the tile must fail")
	}
	if _, err := Part(130, 130, 64, 16); err == nil {
		t.Fatal("non-exact cover must fail")
	}
	if _, err := Part(128, 128, 64, -1); err == nil {
		t.Fatal("negative margin must fail")
	}
}

func TestCoresPartitionLayout(t *testing.T) {
	p := paperGeometry(t)
	cover := grid.NewMat(p.H, p.W)
	for _, s := range p.Tiles {
		for y := s.CoreY0; y < s.CoreY1; y++ {
			for x := s.CoreX0; x < s.CoreX1; x++ {
				cover.Set(y, x, cover.At(y, x)+1)
			}
		}
	}
	for i, v := range cover.Data {
		if v != 1 {
			t.Fatalf("pixel %d covered %v times by cores", i, v)
		}
	}
}

func TestExtractShapesAndContent(t *testing.T) {
	p := paperGeometry(t)
	rng := rand.New(rand.NewSource(1))
	layout := grid.NewMat(128, 128)
	for i := range layout.Data {
		layout.Data[i] = rng.Float64()
	}
	tiles := p.Extract(layout)
	if len(tiles) != 9 {
		t.Fatalf("%d tiles", len(tiles))
	}
	for i, s := range p.Tiles {
		if tiles[i].H != 64 || tiles[i].W != 64 {
			t.Fatalf("tile %d shape %dx%d", i, tiles[i].H, tiles[i].W)
		}
		if tiles[i].At(0, 0) != layout.At(s.Y0, s.X0) {
			t.Fatalf("tile %d content mismatch", i)
		}
	}
}

func TestWeightsPartitionOfUnity(t *testing.T) {
	p := paperGeometry(t)
	for _, d := range []int{0, 8, 16, 32} {
		ws, err := p.Weights(d)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		sum := grid.NewMat(p.H, p.W)
		for i, s := range p.Tiles {
			sum.AccumulateWeighted(filled(p.Tile, p.Tile, 1), ws[i], s.Y0, s.X0)
		}
		for i, v := range sum.Data {
			if math.Abs(v-1) > 1e-12 {
				t.Fatalf("d=%d: weight sum %v at pixel %d", d, v, i)
			}
		}
	}
}

func TestWeightsHardEqualsCoreIndicator(t *testing.T) {
	p := paperGeometry(t)
	ws, err := p.Weights(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range p.Tiles {
		for y := 0; y < p.Tile; y++ {
			for x := 0; x < p.Tile; x++ {
				ly, lx := s.Y0+y, s.X0+x
				inCore := ly >= s.CoreY0 && ly < s.CoreY1 && lx >= s.CoreX0 && lx < s.CoreX1
				want := 0.0
				if inCore {
					want = 1
				}
				if ws[i].At(y, x) != want {
					t.Fatalf("tile %d weight at %d,%d = %v want %v", i, y, x, ws[i].At(y, x), want)
				}
			}
		}
	}
}

func TestWeightsValidation(t *testing.T) {
	p := paperGeometry(t)
	if _, err := p.Weights(33); err == nil {
		t.Fatal("odd blend width must fail")
	}
	if _, err := p.Weights(34); err == nil {
		t.Fatal("blend wider than overlap must fail")
	}
	if _, err := p.Weights(-2); err == nil {
		t.Fatal("negative blend must fail")
	}
}

func TestWeightsRampIsLinear(t *testing.T) {
	p := paperGeometry(t)
	const d = 16
	ws, err := p.Weights(d)
	if err != nil {
		t.Fatal(err)
	}
	// Centre tile, left boundary at layout x=48 → band [40, 56).
	s := p.Tiles[4]
	w := ws[4]
	y := 32 // well inside the core in y
	for i := 0; i < d; i++ {
		lx := 40 + i
		want := (0.5 + float64(i)) / d
		got := w.At(y, lx-s.X0)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("ramp at %d: %v want %v", lx, got, want)
		}
	}
}

// Property: assembling tiles cropped from a single layout reproduces
// that layout exactly, for any valid blend width — the consistency
// property that makes staged Schwarz iteration well-defined.
func TestQuickAssembleIdentity(t *testing.T) {
	p := paperGeometry(t)
	f := func(seed int64, dRaw uint8) bool {
		d := int(dRaw) % 17 * 2 // 0..32, even
		rng := rand.New(rand.NewSource(seed))
		layout := grid.NewMat(p.H, p.W)
		for i := range layout.Data {
			layout.Data[i] = rng.Float64()
		}
		ws, err := p.Weights(d)
		if err != nil {
			return false
		}
		got := p.Assemble(p.Extract(layout), ws)
		return got.AlmostEqual(layout, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestAssembleUsesCoreOwnership(t *testing.T) {
	p := paperGeometry(t)
	ws, err := p.Weights(0)
	if err != nil {
		t.Fatal(err)
	}
	tiles := make([]*grid.Mat, len(p.Tiles))
	for i := range tiles {
		tiles[i] = filled(p.Tile, p.Tile, float64(i))
	}
	out := p.Assemble(tiles, ws)
	for _, s := range p.Tiles {
		if got := out.At((s.CoreY0+s.CoreY1)/2, (s.CoreX0+s.CoreX1)/2); got != float64(s.Index) {
			t.Fatalf("core of tile %d has value %v", s.Index, got)
		}
	}
}

func TestBlendIntoLocalUpdate(t *testing.T) {
	p := paperGeometry(t)
	ws, err := p.Weights(8)
	if err != nil {
		t.Fatal(err)
	}
	layout := filled(p.H, p.W, 1)
	update := filled(p.Tile, p.Tile, 5)
	p.BlendInto(layout, update, ws[4], 4)
	s := p.Tiles[4]
	// Core centre takes the update fully.
	if layout.At((s.CoreY0+s.CoreY1)/2, (s.CoreX0+s.CoreX1)/2) != 5 {
		t.Fatal("core not updated")
	}
	// Far corner of the layout is untouched.
	if layout.At(0, 0) != 1 {
		t.Fatal("outside region modified")
	}
}

func TestStitchLines(t *testing.T) {
	p := paperGeometry(t)
	lines := p.StitchLines()
	var v, h int
	for _, l := range lines {
		if l.Vertical {
			v++
			if l.Pos != 48 && l.Pos != 80 {
				t.Fatalf("unexpected vertical line at %d", l.Pos)
			}
		} else {
			h++
			if l.Pos != 48 && l.Pos != 80 {
				t.Fatalf("unexpected horizontal line at %d", l.Pos)
			}
		}
		if l.Lo != 0 || l.Hi != 128 {
			t.Fatalf("line extent %d..%d", l.Lo, l.Hi)
		}
	}
	if v != 2 || h != 2 {
		t.Fatalf("got %d vertical, %d horizontal lines", v, h)
	}
}

func TestColorsSeparateOverlappingTiles(t *testing.T) {
	p := paperGeometry(t)
	groups := p.Colors()
	total := 0
	for _, g := range groups {
		total += len(g)
		for i := 0; i < len(g); i++ {
			for j := i + 1; j < len(g); j++ {
				if p.Overlap(g[i], g[j]) {
					t.Fatalf("same-colour tiles %d and %d overlap", g[i], g[j])
				}
			}
		}
	}
	if total != len(p.Tiles) {
		t.Fatalf("colour groups cover %d of %d tiles", total, len(p.Tiles))
	}
	if len(groups) > 4 {
		t.Fatalf("%d colours used, want ≤4", len(groups))
	}
}

// Overlap reports whether tiles i and j share any pixels: the
// rectangle test the colouring tests check Colors against.
func (p *Partition) Overlap(i, j int) bool {
	a, b := p.Tiles[i], p.Tiles[j]
	return a.Y0 < b.Y0+p.Tile && b.Y0 < a.Y0+p.Tile &&
		a.X0 < b.X0+p.Tile && b.X0 < a.X0+p.Tile
}

func TestOverlap(t *testing.T) {
	p := paperGeometry(t)
	if !p.Overlap(0, 1) || !p.Overlap(0, 4) || !p.Overlap(0, 3) {
		t.Fatal("adjacent tiles must overlap")
	}
	if p.Overlap(0, 2) || p.Overlap(0, 8) {
		t.Fatal("distant tiles must not overlap")
	}
}

func TestSingleTilePartition(t *testing.T) {
	p, err := Part(64, 64, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tiles) != 1 {
		t.Fatalf("%d tiles", len(p.Tiles))
	}
	s := p.Tiles[0]
	if s.CoreY0 != 0 || s.CoreY1 != 64 || s.CoreX0 != 0 || s.CoreX1 != 64 {
		t.Fatalf("single tile must own everything: %+v", s)
	}
	if lines := p.StitchLines(); len(lines) != 0 {
		t.Fatalf("single tile has %d stitch lines", len(lines))
	}
}

func TestRectangularPartition(t *testing.T) {
	p, err := Part(128, 192, 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rows != 3 || p.Cols != 5 {
		t.Fatalf("got %dx%d", p.Rows, p.Cols)
	}
	ws, err := p.Weights(16)
	if err != nil {
		t.Fatal(err)
	}
	sum := grid.NewMat(p.H, p.W)
	ones := filled(p.Tile, p.Tile, 1)
	for i, s := range p.Tiles {
		sum.AccumulateWeighted(ones, ws[i], s.Y0, s.X0)
	}
	for i, v := range sum.Data {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("rectangular weight sum %v at %d", v, i)
		}
	}
}
