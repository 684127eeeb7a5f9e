package mrc

import (
	"testing"

	"mgsilt/internal/grid"
)

func rect(m *grid.Mat, y0, x0, h, w int) {
	for y := y0; y < y0+h; y++ {
		for x := x0; x < x0+w; x++ {
			m.Set(y, x, 1)
		}
	}
}

func TestRulesValidate(t *testing.T) {
	if err := DefaultRules().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Rules{MinWidth: 0, MinSpace: 1, MinArea: 1}).Validate(); err == nil {
		t.Fatal("zero width rule must fail")
	}
}

func TestCleanMaskPasses(t *testing.T) {
	m := grid.NewMat(32, 32)
	rect(m, 8, 8, 10, 10)
	rep, err := Check(m, DefaultRules())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean mask flagged: %+v", rep)
	}
}

func TestWidthViolation(t *testing.T) {
	m := grid.NewMat(32, 32)
	rect(m, 8, 4, 1, 20) // 1-px-wide wire
	rep, err := Check(m, Rules{MinWidth: 3, MinSpace: 3, MinArea: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.WidthViolations) == 0 {
		t.Fatal("1px wire not flagged as width violation")
	}
	if v := rep.WidthViolations[0]; v.Y != 8 || v.X < 4 || v.X >= 24 {
		t.Fatalf("violation %+v off the wire", v)
	}
}

func TestSpaceViolation(t *testing.T) {
	m := grid.NewMat(32, 32)
	rect(m, 8, 4, 8, 10)
	rect(m, 8, 15, 8, 10) // 1-px gap at x=14
	rep, err := Check(m, Rules{MinWidth: 1, MinSpace: 3, MinArea: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.SpaceViolations) == 0 {
		t.Fatal("1px gap not flagged")
	}
	if v := rep.SpaceViolations[0]; v.X != 14 {
		t.Fatalf("violation %+v off the gap", v)
	}
}

func TestWideGapPasses(t *testing.T) {
	m := grid.NewMat(32, 32)
	rect(m, 8, 4, 8, 8)
	rect(m, 8, 18, 8, 8) // 6-px gap
	rep, err := Check(m, Rules{MinWidth: 1, MinSpace: 3, MinArea: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.SpaceViolations) != 0 {
		t.Fatalf("legal gap flagged: %+v", rep.SpaceViolations)
	}
}

func TestAreaViolation(t *testing.T) {
	m := grid.NewMat(32, 32)
	rect(m, 4, 4, 2, 2)   // 4 px sliver
	rect(m, 16, 16, 6, 6) // 36 px legal
	rep, err := Check(m, Rules{MinWidth: 1, MinSpace: 1, MinArea: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.AreaViolations) != 1 {
		t.Fatalf("area violations %+v", rep.AreaViolations)
	}
	if v := rep.AreaViolations[0]; v.Y < 4 || v.Y >= 6 || v.X < 4 || v.X >= 6 {
		t.Fatalf("violation %+v off the sliver", v)
	}
}

func TestComponents(t *testing.T) {
	m := grid.NewMat(16, 16)
	rect(m, 1, 1, 3, 3)
	rect(m, 8, 8, 2, 5)
	// Diagonal touch merges under 8-connectivity.
	m.Set(4, 4, 1)
	comps := Components(m)
	if len(comps) != 2 {
		t.Fatalf("%d components, want 2 (diagonal pixel joins the first)", len(comps))
	}
	total := 0
	for _, c := range comps {
		total += c.Area
	}
	if total != int(m.Sum()) {
		t.Fatalf("component areas %d != mask sum %v", total, m.Sum())
	}
}

func TestComponentsEmpty(t *testing.T) {
	if got := Components(grid.NewMat(8, 8)); len(got) != 0 {
		t.Fatalf("empty image has %d components", len(got))
	}
}

func TestStitchDebrisCreatesViolation(t *testing.T) {
	// The Fig. 1 scenario: independent tile optimisation leaves an
	// orphaned SRAF fragment straddling the stitch line — a
	// sub-minimum-area sliver the mask shop rejects.
	m := grid.NewMat(32, 64)
	rect(m, 12, 4, 6, 24)  // healthy wire, left tile
	rect(m, 12, 36, 6, 24) // healthy wire, right tile
	rect(m, 4, 31, 2, 2)   // debris on the boundary at x=32
	rep, err := Check(m, DefaultRules())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("boundary debris produced no MRC violation")
	}
	near := rep.CheckNearLines([]int{32}, nil, 4)
	if near.Total() == 0 {
		t.Fatal("violations not located at the stitch line")
	}
}

func TestNeckViolation(t *testing.T) {
	// Two solid pads joined by a 1-px bridge: the opening check alone
	// restores the bridge ends, but the opened image splits the
	// component — the neck detector must fire.
	m := grid.NewMat(24, 32)
	rect(m, 8, 2, 8, 8)   // left pad
	rect(m, 8, 16, 8, 8)  // right pad
	rect(m, 11, 10, 1, 6) // 1-px bridge, length 6
	rep, err := Check(m, Rules{MinWidth: 3, MinSpace: 1, MinArea: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.WidthViolations) == 0 {
		t.Fatal("1-px neck not detected")
	}
}

func TestCheckNearLinesFilters(t *testing.T) {
	rep := &Report{
		WidthViolations: []Violation{{Y: 10, X: 100}},
		AreaViolations:  []Violation{{Y: 50, X: 10}},
	}
	near := rep.CheckNearLines([]int{98}, []int{50}, 3)
	if len(near.WidthViolations) != 1 || len(near.AreaViolations) != 1 {
		t.Fatalf("filter wrong: %+v", near)
	}
	far := rep.CheckNearLines([]int{0}, nil, 3)
	if far.Total() != 0 {
		t.Fatalf("far filter wrong: %+v", far)
	}
}

func TestCheckRejectsBadRules(t *testing.T) {
	if _, err := Check(grid.NewMat(8, 8), Rules{}); err == nil {
		t.Fatal("expected rules error")
	}
}

func BenchmarkCheck256(b *testing.B) {
	m := grid.NewMat(256, 256)
	for t := 0; t < 9; t++ {
		rect(m, 10+t*26, 8, 10, 240)
	}
	rect(m, 4, 4, 2, 2) // one sliver
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Check(m, DefaultRules()); err != nil {
			b.Fatal(err)
		}
	}
}
