// Package tile implements the overlapping tile partition of Fig. 2 and
// the Schwarz assembly operators of the paper:
//
//   - Part(·): the layout is cut into J overlapping tiles; the
//     non-overlapping interiors are "core" sections and the rest are
//     "margin" sections.
//   - RAS assembly (Eq. 6): each tile contributes exactly its core —
//     the restricted additive Schwarz interpolation R̃ᵀ.
//   - Weighted assembly (Eq. 14): the weighted interpolation operator
//     R'ᵀ feathers a band of width D centred on every shared core
//     boundary with the linear ramp of Eq. (13), removing stitch seams.
//   - The multi-colour scheme of Section 3.4: a 2×2 colouring in which
//     overlapping tiles never share a colour, so same-colour tiles can
//     run in parallel during the multiplicative refine pass.
//   - Stitch-line geometry for the Stitch Loss metric (Definition 1).
package tile

import (
	"fmt"

	"mgsilt/internal/grid"
	"mgsilt/internal/parallel"
)

// Spec describes one tile of a partition in layout coordinates.
type Spec struct {
	Index, Row, Col int
	Y0, X0          int // tile origin
	// Core rectangle [CoreY0,CoreY1)×[CoreX0,CoreX1): the
	// non-overlapping section this tile owns (edge tiles own up to the
	// layout border).
	CoreY0, CoreX0, CoreY1, CoreX1 int
	Color                          int // 2×2 colour class, 0..3
}

// Partition is an overlapping tiling of an H×W layout.
type Partition struct {
	H, W       int
	Tile       int // tile side length
	Margin     int // l: margin width; adjacent tiles overlap by 2l
	Rows, Cols int
	Tiles      []Spec
}

// StitchLine is one shared core boundary: the locus where two tiles'
// core sections meet and where stitching discontinuities appear.
type StitchLine struct {
	Vertical bool
	Pos      int // x (vertical) or y (horizontal) coordinate of the boundary
	Lo, Hi   int // extent along the line, half-open
}

// Part partitions an h×w layout into overlapping tiles of the given
// side with margin l (overlap 2l between neighbours), per Fig. 2. The
// geometry must fit exactly: (h-tile) and (w-tile) must be divisible by
// the step tile-2l. Part(h, w, tile, 0) degenerates to a disjoint grid.
func Part(h, w, tileSize, margin int) (*Partition, error) {
	if tileSize <= 0 || h < tileSize || w < tileSize {
		return nil, fmt.Errorf("tile: tile %d does not fit %dx%d", tileSize, h, w)
	}
	if margin < 0 || 2*margin >= tileSize {
		return nil, fmt.Errorf("tile: margin %d out of range for tile %d", margin, tileSize)
	}
	step := tileSize - 2*margin
	if (h-tileSize)%step != 0 || (w-tileSize)%step != 0 {
		return nil, fmt.Errorf("tile: %dx%d not coverable by tile %d with margin %d (step %d)", h, w, tileSize, margin, step)
	}
	p := &Partition{
		H: h, W: w, Tile: tileSize, Margin: margin,
		Rows: (h-tileSize)/step + 1,
		Cols: (w-tileSize)/step + 1,
	}
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			y0, x0 := r*step, c*step
			s := Spec{
				Index: len(p.Tiles), Row: r, Col: c,
				Y0: y0, X0: x0,
				CoreY0: y0 + margin, CoreY1: y0 + tileSize - margin,
				CoreX0: x0 + margin, CoreX1: x0 + tileSize - margin,
				Color: (r%2)*2 + c%2,
			}
			if r == 0 {
				s.CoreY0 = 0
			}
			if r == p.Rows-1 {
				s.CoreY1 = h
			}
			if c == 0 {
				s.CoreX0 = 0
			}
			if c == p.Cols-1 {
				s.CoreX1 = w
			}
			p.Tiles = append(p.Tiles, s)
		}
	}
	return p, nil
}

// MustPart is Part for statically-correct geometry.
func MustPart(h, w, tileSize, margin int) *Partition {
	p, err := Part(h, w, tileSize, margin)
	if err != nil {
		panic(err)
	}
	return p
}

// Extract crops every tile from the layout (the restriction operators
// R_j of Eq. 6 applied to the full image).
func (p *Partition) Extract(layout *grid.Mat) []*grid.Mat {
	if layout.H != p.H || layout.W != p.W {
		panic(fmt.Sprintf("tile: layout %dx%d does not match partition %dx%d", layout.H, layout.W, p.H, p.W))
	}
	out := make([]*grid.Mat, len(p.Tiles))
	for i, s := range p.Tiles {
		out[i] = layout.Crop(s.Y0, s.X0, p.Tile, p.Tile)
	}
	return out
}

// Weights builds per-tile weight maps (tile-local coordinates)
// implementing the weighted interpolation operator R'ᵀ of Eq. (14).
// Across every interior core boundary the weight ramps linearly over a
// band of width D centred on the boundary (Eq. 13); the maps of all
// tiles sum to exactly 1 at every layout pixel. D=0 yields the hard
// RAS operator R̃ᵀ of Eq. (6): the indicator of the core section.
// D must be even (the band is symmetric about the boundary) and at
// most 2·margin so the band stays inside the overlap.
func (p *Partition) Weights(d int) ([]*grid.Mat, error) {
	if d < 0 || d > 2*p.Margin {
		return nil, fmt.Errorf("tile: blend width %d out of [0, 2·margin=%d]", d, 2*p.Margin)
	}
	if d%2 != 0 {
		return nil, fmt.Errorf("tile: blend width %d must be even", d)
	}
	out := make([]*grid.Mat, len(p.Tiles))
	for i, s := range p.Tiles {
		wy := p.axisProfile(s.Y0, s.CoreY0, s.CoreY1, s.Row, p.Rows, d)
		wx := p.axisProfile(s.X0, s.CoreX0, s.CoreX1, s.Col, p.Cols, d)
		w := grid.NewMat(p.Tile, p.Tile)
		for y := 0; y < p.Tile; y++ {
			row := w.Row(y)
			for x := 0; x < p.Tile; x++ {
				row[x] = wy[y] * wx[x]
			}
		}
		out[i] = w
	}
	return out, nil
}

// axisProfile returns the 1-D weight profile of a tile along one axis:
// 1 deep inside the core, ramping to 0 across the D-wide band at each
// interior core boundary, 0 outside. Profiles of adjacent tiles sum to
// 1 over the shared band because the ramp is w = (0.5+t)/D against the
// mirrored 1-w of the neighbour.
func (p *Partition) axisProfile(origin, core0, core1, idx, count, d int) []float64 {
	w := make([]float64, p.Tile)
	for i := range w {
		pos := origin + i
		v := 1.0
		if idx > 0 { // interior boundary at core0
			v *= rampUp(pos, core0, d)
		}
		if idx < count-1 { // interior boundary at core1
			v *= rampUp(2*core1-1-pos, core1, d) // mirrored ramp down
		}
		w[i] = v
	}
	return w
}

// rampUp is 0 well before the boundary b, 1 well after, ramping
// linearly across the band [b-d/2, b+d/2). With d=0 it is a hard step:
// 0 below b, 1 at or above b.
func rampUp(pos, b, d int) float64 {
	if d == 0 {
		if pos >= b {
			return 1
		}
		return 0
	}
	t := pos - (b - d/2)
	switch {
	case t < 0:
		return 0
	case t >= d:
		return 1
	default:
		return (0.5 + float64(t)) / float64(d)
	}
}

// Assemble rebuilds the layout from per-tile solutions using the given
// weight maps (from Weights): M* = Σ R'ᵀ_j u_j. With d=0 weights this
// is Eq. (6); with d>0 it is Eq. (14).
//
// The sum runs in parallel over bands of output rows. Each band adds
// the tiles' weighted rows in tile-index order, so every pixel sees the
// same sequence of additions — 0 + w₀u₀ + w₁u₁ + … — at any split.
func (p *Partition) Assemble(tiles, weights []*grid.Mat) *grid.Mat {
	if len(tiles) != len(p.Tiles) || len(weights) != len(p.Tiles) {
		panic(fmt.Sprintf("tile: Assemble got %d tiles, %d weights for %d specs", len(tiles), len(weights), len(p.Tiles)))
	}
	for i := range p.Tiles {
		if tiles[i].H != p.Tile || tiles[i].W != p.Tile || !tiles[i].SameShape(weights[i]) {
			panic(fmt.Sprintf("tile: Assemble tile %d is %dx%d with %dx%d weights, want %dx%d",
				i, tiles[i].H, tiles[i].W, weights[i].H, weights[i].W, p.Tile, p.Tile))
		}
	}
	out := grid.NewMat(p.H, p.W)
	parallel.DoChunks(p.H, parallel.SweepLimit(len(p.Tiles)*p.Tile*p.Tile), func(lo, hi int) {
		for i, s := range p.Tiles {
			for y := max(lo, s.Y0); y < min(hi, s.Y0+p.Tile); y++ {
				dst := out.Row(y)[s.X0 : s.X0+p.Tile]
				src, w := tiles[i].Row(y-s.Y0), weights[i].Row(y-s.Y0)
				for x := range dst {
					dst[x] += w[x] * src[x]
				}
			}
		}
	})
	return out
}

// BlendInto blends a single tile's solution back into the layout in
// place using its weight map: layout = (1-w)·layout + w·u. This is the
// multiplicative-Schwarz update used by the refine pass, where updates
// of one colour must be visible to the next.
func (p *Partition) BlendInto(layout, tileMat, weight *grid.Mat, index int) {
	s := p.Tiles[index]
	layout.PasteWeighted(tileMat, weight, s.Y0, s.X0)
}

// FreezeMasks builds per-tile Dirichlet masks for the modified Schwarz
// boundary condition (Eq. 11): entry (y,x) is 1 where the tile pixel
// lies outside its core section expanded by `reach` pixels — the
// region that must hold the adjacent tiles' data during the subdomain
// solve. reach is typically BlendWidth/2, so the frozen region starts
// exactly where the Eq. (13) blending ramp hands authority to the
// neighbour.
func (p *Partition) FreezeMasks(reach int) []*grid.Mat {
	if reach < 0 {
		panic(fmt.Sprintf("tile: negative freeze reach %d", reach))
	}
	out := make([]*grid.Mat, len(p.Tiles))
	for i, s := range p.Tiles {
		f := grid.NewMat(p.Tile, p.Tile)
		for y := 0; y < p.Tile; y++ {
			ly := s.Y0 + y
			rowFrozen := ly < s.CoreY0-reach || ly >= s.CoreY1+reach
			row := f.Row(y)
			for x := 0; x < p.Tile; x++ {
				lx := s.X0 + x
				if rowFrozen || lx < s.CoreX0-reach || lx >= s.CoreX1+reach {
					row[x] = 1
				}
			}
		}
		out[i] = f
	}
	return out
}

// StitchLines returns all shared core boundaries of the partition, the
// loci audited by the Stitch Loss metric.
func (p *Partition) StitchLines() []StitchLine {
	var lines []StitchLine
	seenV := map[int]bool{}
	seenH := map[int]bool{}
	for _, s := range p.Tiles {
		if s.Col > 0 && !seenV[s.CoreX0] {
			seenV[s.CoreX0] = true
			lines = append(lines, StitchLine{Vertical: true, Pos: s.CoreX0, Lo: 0, Hi: p.H})
		}
		if s.Row > 0 && !seenH[s.CoreY0] {
			seenH[s.CoreY0] = true
			lines = append(lines, StitchLine{Vertical: false, Pos: s.CoreY0, Lo: 0, Hi: p.W})
		}
	}
	return lines
}

// Colors returns the tile indices grouped by colour class. Tiles in
// one group never overlap (the 2×2 colouring separates all 8-connected
// neighbours), so they may be optimised concurrently during the
// multiplicative refine pass.
func (p *Partition) Colors() [][]int {
	groups := make([][]int, 4)
	for _, s := range p.Tiles {
		groups[s.Color] = append(groups[s.Color], s.Index)
	}
	var out [][]int
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}
