package metrics

import (
	"testing"

	"mgsilt/internal/grid"
	"mgsilt/internal/kernels"
	"mgsilt/internal/litho"
	"mgsilt/internal/tile"
)

func testSim(t testing.TB) *litho.Simulator {
	t.Helper()
	cfg := kernels.DefaultConfig(64)
	nom := kernels.MustGenerate(cfg)
	def, err := kernels.Defocused(cfg, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := litho.New(nom, def, litho.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func testStitchCfg() StitchConfig {
	return StitchConfig{Sigma: 1.5, Iters: 3, Window: 16}
}

// straightWire draws a horizontal wire of the given width crossing the
// whole image.
func straightWire(n, y0, width int) *grid.Mat {
	m := grid.NewMat(n, n)
	for y := y0; y < y0+width; y++ {
		for x := 0; x < n; x++ {
			m.Set(y, x, 1)
		}
	}
	return m
}

// jaggedWire draws a horizontal wire that jumps by `offset` rows at
// column xSplit — the canonical stitch discontinuity of Fig. 3.
func jaggedWire(n, y0, width, xSplit, offset int) *grid.Mat {
	m := grid.NewMat(n, n)
	for x := 0; x < n; x++ {
		base := y0
		if x >= xSplit {
			base = y0 + offset
		}
		for y := base; y < base+width; y++ {
			m.Set(y, x, 1)
		}
	}
	return m
}

func vLine(n, pos int) []tile.StitchLine {
	return []tile.StitchLine{{Vertical: true, Pos: pos, Lo: 0, Hi: n}}
}

func TestL2PerfectForEasyTarget(t *testing.T) {
	sim := testSim(t)
	// A large feature printed from its own target has bounded L2; a
	// blank mask has L2 equal to the target area.
	target := straightWire(64, 24, 16)
	blank := grid.NewMat(64, 64)
	if got := L2(sim, blank, target); got != target.Sum() {
		t.Fatalf("blank-mask L2 %v want %v", got, target.Sum())
	}
	self := L2(sim, target, target)
	if self >= target.Sum()/2 {
		t.Fatalf("self-print L2 %v too high", self)
	}
}

func TestPVBandPositiveForFeatures(t *testing.T) {
	sim := testSim(t)
	mask := straightWire(64, 24, 12)
	pv := PVBand(sim, mask)
	if pv <= 0 {
		t.Fatalf("PVBand %v must be positive for printed features", pv)
	}
	// Blank mask prints nothing at either corner → zero band.
	if got := PVBand(sim, grid.NewMat(64, 64)); got != 0 {
		t.Fatalf("blank PVBand %v", got)
	}
}

// TestInspectMatchesSeparateMetrics: sharing the nominal-focus aerial
// image must not change either metric, on a native-size mask and on a
// 2N clip (the Eq. 3 path inspection runs), while saving exactly one
// nominal-focus Hopkins sum: 18 kernels against 24 on the default optics
// (nominal 6 + defocus 12, against nominal 6 + defocus 12 + nominal 6).
func TestInspectMatchesSeparateMetrics(t *testing.T) {
	sim := testSim(t)
	for _, n := range []int{64, 128} {
		mask := jaggedWire(n, n/3, 10, n/2, 3)
		target := straightWire(n, n/3, 10)
		before := litho.KernelsEvaluatedTotal()
		l2, pv := Inspect(sim, mask, target)
		shared := litho.KernelsEvaluatedTotal() - before
		wantL2, wantPV := L2(sim, mask, target), PVBand(sim, mask)
		separate := litho.KernelsEvaluatedTotal() - before - shared
		if l2 != wantL2 || pv != wantPV {
			t.Fatalf("n=%d: Inspect = (%v, %v), L2/PVBand = (%v, %v)", n, l2, pv, wantL2, wantPV)
		}
		grid.PutMat(sim.Aerial(mask, sim.Nominal()))
		nominalPass := litho.KernelsEvaluatedTotal() - before - shared - separate
		if separate-shared != nominalPass || shared != 18 || separate != 24 {
			t.Fatalf("n=%d: Inspect evaluated %d kernels, L2+PVBand %d, one nominal-focus pass %d; want 18 = 24 − 6",
				n, shared, separate, nominalPass)
		}
	}
}

func TestStitchLossNoLines(t *testing.T) {
	total, errs := StitchLoss(straightWire(64, 24, 8), nil, testStitchCfg())
	if total != 0 || errs != nil {
		t.Fatalf("no lines must give zero loss, got %v", total)
	}
}

func TestStitchLossNoCrossings(t *testing.T) {
	// Wire does not reach the stitch line column region? A horizontal
	// wire crosses every vertical line, so use an empty mask instead.
	total, errs := StitchLoss(grid.NewMat(64, 64), vLine(64, 32), testStitchCfg())
	if total != 0 || len(errs) != 0 {
		t.Fatalf("empty mask must give zero loss, got %v (%d errors)", total, len(errs))
	}
}

func TestStitchLossCountsCrossings(t *testing.T) {
	m := grid.NewMat(64, 64)
	// Two separate wires crossing the line.
	for _, y0 := range []int{10, 40} {
		for y := y0; y < y0+6; y++ {
			for x := 0; x < 64; x++ {
				m.Set(y, x, 1)
			}
		}
	}
	_, errs := StitchLoss(m, vLine(64, 32), testStitchCfg())
	if len(errs) != 2 {
		t.Fatalf("expected 2 crossings, got %d", len(errs))
	}
	// Midpoints near the wire centres.
	for _, e := range errs {
		if e.X != 32 {
			t.Fatalf("crossing X %d want 32", e.X)
		}
		if !((e.Y >= 10 && e.Y < 16) || (e.Y >= 40 && e.Y < 46)) {
			t.Fatalf("crossing Y %d not inside a wire", e.Y)
		}
	}
}

func TestStitchLossJaggedMuchWorseThanStraight(t *testing.T) {
	cfg := testStitchCfg()
	lines := vLine(64, 32)
	straightTotal, _ := StitchLoss(straightWire(64, 28, 8), lines, cfg)
	jaggedTotal, _ := StitchLoss(jaggedWire(64, 28, 8, 32, 4), lines, cfg)
	// A straight continuation survives smoothing + re-thresholding
	// nearly unchanged; the jag is rounded off and leaves a
	// disagreement area.
	if jaggedTotal < straightTotal+5 {
		t.Fatalf("jagged loss %v not clearly worse than straight %v", jaggedTotal, straightTotal)
	}
}

func TestStitchLossGrowsWithOffset(t *testing.T) {
	cfg := testStitchCfg()
	lines := vLine(64, 32)
	prev := 0.0
	for _, off := range []int{0, 2, 4} {
		total, _ := StitchLoss(jaggedWire(64, 28, 8, 32, off), lines, cfg)
		if total < prev {
			t.Fatalf("loss not monotone in offset: %v after %v (offset %d)", total, prev, off)
		}
		prev = total
	}
}

func TestStitchLossDetectsRetreatingShape(t *testing.T) {
	// A wire that stops exactly at the stitch line (present only on the
	// left side) must still be audited.
	m := grid.NewMat(64, 64)
	for y := 28; y < 36; y++ {
		for x := 0; x < 32; x++ {
			m.Set(y, x, 1)
		}
	}
	_, errs := StitchLoss(m, vLine(64, 32), testStitchCfg())
	if len(errs) != 1 {
		t.Fatalf("retreating shape not detected: %d errors", len(errs))
	}
}

func TestStitchLossHorizontalLine(t *testing.T) {
	// Vertical wire crossing a horizontal stitch line.
	m := grid.NewMat(64, 64)
	for y := 0; y < 64; y++ {
		for x := 20; x < 28; x++ {
			m.Set(y, x, 1)
		}
	}
	// Offset the wire below the line to create a jag at the boundary.
	for y := 32; y < 64; y++ {
		for x := 20; x < 28; x++ {
			m.Set(y, x, 0)
		}
		for x := 24; x < 32; x++ {
			m.Set(y, x, 1)
		}
	}
	lines := []tile.StitchLine{{Vertical: false, Pos: 32, Lo: 0, Hi: 64}}
	total, errs := StitchLoss(m, lines, testStitchCfg())
	if len(errs) != 1 || total <= 0 {
		t.Fatalf("horizontal line: %d errors, total %v", len(errs), total)
	}
	if errs[0].Y != 32 || !(errs[0].X >= 20 && errs[0].X < 32) {
		t.Fatalf("bad crossing position %+v", errs[0])
	}
}

func TestStitchLossWindowClipping(t *testing.T) {
	// A crossing near the image border must not panic and must still
	// report a positive loss when the shape jags at the line.
	m := grid.NewMat(64, 64)
	for x := 0; x < 32; x++ {
		for y := 0; y < 4; y++ {
			m.Set(y, x, 1)
		}
	}
	for x := 32; x < 64; x++ {
		for y := 2; y < 6; y++ {
			m.Set(y, x, 1)
		}
	}
	total, errs := StitchLoss(m, vLine(64, 32), testStitchCfg())
	if len(errs) != 1 || total <= 0 {
		t.Fatalf("border crossing: %d errors, total %v", len(errs), total)
	}
}

func TestStitchLossInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	StitchLoss(grid.NewMat(8, 8), vLine(8, 4), StitchConfig{Sigma: 0, Iters: 1, Window: 8})
}

func TestCountAboveAndMaxLoss(t *testing.T) {
	errs := []StitchError{{Loss: 5}, {Loss: 25}, {Loss: 30}}
	if CountAbove(errs, 20) != 2 {
		t.Fatalf("CountAbove=%d", CountAbove(errs, 20))
	}
	if MaxLoss(errs) != 30 {
		t.Fatalf("MaxLoss=%v", MaxLoss(errs))
	}
	if MaxLoss(nil) != 0 || CountAbove(nil, 1) != 0 {
		t.Fatal("empty error list handling")
	}
}

func TestStitchLossIgnoresShapesAwayFromLine(t *testing.T) {
	cfg := testStitchCfg()
	lines := vLine(64, 32)
	base := straightWire(64, 28, 8)
	total1, errs1 := StitchLoss(base, lines, cfg)
	// Add a jagged feature far from the stitch line (x 48..64, beyond
	// the window at x=32±8): total must not change.
	withFar := base.Clone()
	for y := 4; y < 8; y++ {
		for x := 48; x < 60; x++ {
			withFar.Set(y, x, 1)
		}
	}
	total2, errs2 := StitchLoss(withFar, lines, cfg)
	if len(errs1) != len(errs2) {
		t.Fatalf("crossing count changed: %d vs %d", len(errs1), len(errs2))
	}
	if total2 != total1 {
		t.Fatalf("far-away geometry changed stitch loss: %v vs %v", total1, total2)
	}
}

func BenchmarkStitchLoss(b *testing.B) {
	m := jaggedWire(256, 120, 10, 128, 3)
	lines := []tile.StitchLine{
		{Vertical: true, Pos: 128, Lo: 0, Hi: 256},
		{Vertical: false, Pos: 128, Lo: 0, Hi: 256},
	}
	cfg := DefaultStitchConfig()
	cfg.Window = 16
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StitchLoss(m, lines, cfg)
	}
}
