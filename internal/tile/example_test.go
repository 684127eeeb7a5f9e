package tile_test

import (
	"fmt"

	"mgsilt/internal/grid"
	"mgsilt/internal/tile"
)

// ExamplePart shows the paper's partition geometry at 1/16 scale: a
// clip twice the tile size splits into 3×3 overlapping tiles whose
// core sections partition the layout.
func ExamplePart() {
	p, err := tile.Part(128, 128, 64, 16)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d tiles (%dx%d), overlap %d\n", len(p.Tiles), p.Rows, p.Cols, 2*p.Margin)
	centre := p.Tiles[4]
	fmt.Printf("centre tile origin (%d,%d), core [%d,%d)x[%d,%d)\n",
		centre.Y0, centre.X0, centre.CoreY0, centre.CoreY1, centre.CoreX0, centre.CoreX1)
	fmt.Printf("stitch lines: %d\n", len(p.StitchLines()))
	// Output:
	// 9 tiles (3x3), overlap 32
	// centre tile origin (32,32), core [48,80)x[48,80)
	// stitch lines: 4
}

// ExamplePartition_Assemble demonstrates that weighted assembly is
// exact when tiles agree — the consistency property behind the staged
// Schwarz iteration.
func ExamplePartition_Assemble() {
	p := tile.MustPart(128, 128, 64, 16)
	layout := grid.NewMat(128, 128)
	for i := range layout.Data {
		layout.Data[i] = 0.25
	}
	weights, err := p.Weights(16)
	if err != nil {
		panic(err)
	}
	out := p.Assemble(p.Extract(layout), weights)
	fmt.Println(out.AlmostEqual(layout, 1e-12))
	// Output:
	// true
}

// ExamplePartition_Colors shows the 2×2 colouring used by the
// multi-colour multiplicative Schwarz refine pass.
func ExamplePartition_Colors() {
	p := tile.MustPart(128, 128, 64, 16)
	for _, group := range p.Colors() {
		fmt.Println(group)
	}
	// Output:
	// [0 2 6 8]
	// [1 7]
	// [3 5]
	// [4]
}
