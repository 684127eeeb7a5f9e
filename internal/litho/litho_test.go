package litho

import (
	"math"
	"math/rand"
	"testing"

	"mgsilt/internal/grid"
	"mgsilt/internal/kernels"
)

const testN = 64

func testSim(t testing.TB) *Simulator {
	t.Helper()
	cfg := kernels.DefaultConfig(testN)
	nom := kernels.MustGenerate(cfg)
	def, err := kernels.Defocused(cfg, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(nom, def, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func centredSquare(n, side int) *grid.Mat {
	m := grid.NewMat(n, n)
	lo := n/2 - side/2
	for y := lo; y < lo+side; y++ {
		for x := lo; x < lo+side; x++ {
			m.Set(y, x, 1)
		}
	}
	return m
}

func TestNewValidation(t *testing.T) {
	cfg := kernels.DefaultConfig(testN)
	nom := kernels.MustGenerate(cfg)
	def := kernels.MustGenerate(kernels.DefaultConfig(testN * 2))
	if _, err := New(nom, def, DefaultConfig()); err == nil {
		t.Fatal("expected grid-mismatch error")
	}
	if _, err := New(nom, nil, DefaultConfig()); err == nil {
		t.Fatal("expected nil-set error")
	}
	bad := DefaultConfig()
	bad.Threshold = 0
	if _, err := New(nom, nom, bad); err == nil {
		t.Fatal("expected threshold error")
	}
	bad = DefaultConfig()
	bad.SigmoidSteep = -1
	if _, err := New(nom, nom, bad); err == nil {
		t.Fatal("expected steepness error")
	}
	bad = DefaultConfig()
	bad.DoseDelta = 1.5
	if _, err := New(nom, nom, bad); err == nil {
		t.Fatal("expected dose-delta error")
	}
}

func TestClearAndDarkField(t *testing.T) {
	sim := testSim(t)
	clear := grid.NewMat(testN, testN).Fill(1)
	aerial := sim.Aerial(clear, sim.Nominal())
	for i, v := range aerial.Data {
		if math.Abs(v-1) > 0.05 {
			t.Fatalf("clear-field intensity at %d is %v, want ≈1", i, v)
		}
	}
	if w := sim.Wafer(clear, sim.Nominal()); w.Sum() != float64(testN*testN) {
		t.Fatal("clear mask must print everywhere")
	}
	dark := grid.NewMat(testN, testN)
	if w := sim.Wafer(dark, sim.Nominal()); w.Sum() != 0 {
		t.Fatal("dark mask must print nowhere")
	}
}

func TestLargeFeaturePrintsNearDrawnEdge(t *testing.T) {
	sim := testSim(t)
	mask := centredSquare(testN, 32)
	w := sim.Wafer(mask, sim.Nominal())
	// The printed centre must be exposed and the far corners dark.
	if w.At(testN/2, testN/2) != 1 {
		t.Fatal("feature centre did not print")
	}
	if w.At(1, 1) != 0 {
		t.Fatal("background printed")
	}
	// Printed area should be within 35% of drawn area (low-k1 corner
	// rounding shrinks the square; threshold keeps edges near position).
	drawn := mask.Sum()
	printed := w.Sum()
	if printed < 0.65*drawn || printed > 1.35*drawn {
		t.Fatalf("printed area %v vs drawn %v", printed, drawn)
	}
}

func TestAerialShiftInvariance(t *testing.T) {
	sim := testSim(t)
	mask := centredSquare(testN, 16)
	base := sim.Aerial(mask, sim.Nominal())
	const sy, sx = 8, 12
	shifted := grid.NewMat(testN, testN)
	for y := 0; y < testN; y++ {
		for x := 0; x < testN; x++ {
			shifted.Set((y+sy)%testN, (x+sx)%testN, mask.At(y, x))
		}
	}
	got := sim.Aerial(shifted, sim.Nominal())
	for y := 0; y < testN; y++ {
		for x := 0; x < testN; x++ {
			want := base.At(y, x)
			if math.Abs(got.At((y+sy)%testN, (x+sx)%testN)-want) > 1e-9 {
				t.Fatalf("shift invariance violated at %d,%d", y, x)
			}
		}
	}
}

func TestAerialSymmetry(t *testing.T) {
	sim := testSim(t)
	mask := centredSquare(testN, 20)
	a := sim.Aerial(mask, sim.Nominal())
	// The mask is symmetric under (y,x) → (N-1-y, N-1-x) (the square is
	// centred on a half-pixel), and the staggered-ring source is
	// invariant under 180° rotation, so the intensity shares that
	// symmetry.
	for y := 20; y < 44; y++ {
		for x := 20; x < 44; x++ {
			v1 := a.At(y, x)
			v2 := a.At(testN-1-y, testN-1-x)
			if math.Abs(v1-v2) > 1e-6 {
				t.Fatalf("asymmetry at (%d,%d): %v vs %v", y, x, v1, v2)
			}
		}
	}
}

func TestDoseMonotone(t *testing.T) {
	sim := testSim(t)
	mask := centredSquare(testN, 24)
	aerial := sim.Aerial(mask, sim.Nominal())
	lo := sim.PrintResist(aerial, 0.98)
	hi := sim.PrintResist(aerial, 1.02)
	for i := range lo.Data {
		if lo.Data[i] > hi.Data[i] {
			t.Fatal("higher dose must print a superset")
		}
	}
	if hi.Sum() <= lo.Sum() {
		t.Fatalf("dose sweep did not grow the print: %v vs %v", lo.Sum(), hi.Sum())
	}
}

func TestDefocusShrinksProcessWindow(t *testing.T) {
	sim := testSim(t)
	mask := centredSquare(testN, 12) // near-resolution feature
	nom := sim.Aerial(mask, sim.Nominal())
	def := sim.Aerial(mask, Condition{FocusDefocus, 1})
	// Defocus lowers the peak intensity of a small bright feature.
	c := testN / 2
	if def.At(c, c) >= nom.At(c, c) {
		t.Fatalf("defocus did not lower peak: %v vs %v", def.At(c, c), nom.At(c, c))
	}
}

func TestMaskSizeValidation(t *testing.T) {
	sim := testSim(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-multiple mask size")
		}
	}()
	sim.Aerial(grid.NewMat(96, 96), sim.Nominal())
}

func TestEq3LargeAreaConsistency(t *testing.T) {
	// A feature simulated at native N must match the same feature
	// embedded in an empty 2N field simulated with resampled kernels
	// (Eq. 3), away from wrap-around differences.
	sim := testSim(t)
	mask := centredSquare(testN, 16)
	native := sim.Aerial(mask, sim.Nominal())

	big := grid.NewMat(2*testN, 2*testN).Paste(mask, testN/2, testN/2)
	large := sim.Aerial(big, sim.Nominal())
	crop := large.Crop(testN/2, testN/2, testN, testN)

	maxErr := 0.0
	for y := testN/2 - 12; y < testN/2+12; y++ {
		for x := testN/2 - 12; x < testN/2+12; x++ {
			if d := math.Abs(native.At(y, x) - crop.At(y, x)); d > maxErr {
				maxErr = d
			}
		}
	}
	if maxErr > 0.05 {
		t.Fatalf("Eq.3 interior mismatch %v", maxErr)
	}
}

func TestEq9CoarseGridConsistency(t *testing.T) {
	// Coarse-grid simulation of a downsampled mask approximates the
	// downsampled fine aerial image (Eq. 9).
	sim := testSim(t)
	mask := centredSquare(testN, 24)
	fine := sim.Aerial(mask, sim.Nominal()).Downsample(2)
	coarse := sim.AerialScaled(mask.Downsample(2), 2, sim.Nominal())
	var mae, maxErr float64
	for i := range fine.Data {
		d := math.Abs(fine.Data[i] - coarse.Data[i])
		mae += d
		if d > maxErr {
			maxErr = d
		}
	}
	mae /= float64(len(fine.Data))
	// The coarse grid is approximate (the paper: "more comprehensive in
	// scope but less precise in accuracy") because intensity is
	// quadratic in the fields, but for a band-limited image the
	// downsampled simulation tracks the downsampled intensity closely.
	if mae > 0.005 {
		t.Fatalf("Eq.9 mean mismatch %v", mae)
	}
	if maxErr > 0.05 {
		t.Fatalf("Eq.9 max mismatch %v", maxErr)
	}
}

// TestSigmoidResistRange checks the relaxed resist the evaluation
// applies, Z = σ(steep·(dose·I − threshold)).
func TestSigmoidResistRange(t *testing.T) {
	cfg := testSim(t).Config()
	resist := func(v float64) float64 { return sigmoid(cfg.SigmoidSteep * (v - cfg.Threshold)) }
	for _, v := range []float64{0, 0.225, 0.5, 2} {
		if z := resist(v); z < 0 || z > 1 {
			t.Fatalf("sigmoid out of range: %v", z)
		}
	}
	// At exactly the threshold the sigmoid is 1/2.
	if z := resist(cfg.Threshold); math.Abs(z-0.5) > 1e-12 {
		t.Fatalf("sigmoid at threshold = %v", z)
	}
}

func TestSigmoidSaturation(t *testing.T) {
	if sigmoid(1000) != 1 || sigmoid(-1000) != 0 {
		t.Fatal("sigmoid tails must saturate without overflow")
	}
}

func TestLossGradFiniteDifference(t *testing.T) {
	sim := testSim(t)
	rng := rand.New(rand.NewSource(42))
	target := centredSquare(testN, 20)
	mask := grid.NewMat(testN, testN)
	for i := range mask.Data {
		mask.Data[i] = target.Data[i]*0.8 + 0.1 + 0.05*rng.Float64()
	}
	opts := LossOpts{Stretch: 1, PVWeight: 0.5}
	loss, gradient := sim.LossGrad(mask, target, opts)
	if loss <= 0 {
		t.Fatalf("loss %v must be positive for an imperfect mask", loss)
	}
	const eps = 1e-5
	checks := 0
	for trial := 0; trial < 200 && checks < 12; trial++ {
		y, x := rng.Intn(testN), rng.Intn(testN)
		g := gradient.At(y, x)
		if math.Abs(g) < 1e-4 {
			continue // skip numerically-flat pixels
		}
		orig := mask.At(y, x)
		mask.Set(y, x, orig+eps)
		lp, _ := sim.LossGrad(mask, target, opts)
		mask.Set(y, x, orig-eps)
		lm, _ := sim.LossGrad(mask, target, opts)
		mask.Set(y, x, orig)
		fd := (lp - lm) / (2 * eps)
		if math.Abs(fd-g) > 1e-3*(math.Abs(fd)+math.Abs(g))+1e-6 {
			t.Fatalf("gradient mismatch at %d,%d: adjoint %v vs finite-diff %v", y, x, g, fd)
		}
		checks++
	}
	if checks < 8 {
		t.Fatalf("only %d gradient checks ran", checks)
	}
}

func TestLossGradPerfectMaskHasTinyLoss(t *testing.T) {
	sim := testSim(t)
	target := grid.NewMat(testN, testN) // empty target
	mask := grid.NewMat(testN, testN)   // empty mask
	loss, gradient := sim.LossGrad(mask, target, LossOpts{Stretch: 1})
	// The sigmoid tail leaves a tiny residual (σ(-steep·th) ≈ 1e-4 per
	// pixel); the loss and gradient must be negligible, not exactly 0.
	if loss > 1e-3 {
		t.Fatalf("empty/empty loss %v", loss)
	}
	if gradient.MaxAbs() > 1e-4 {
		t.Fatalf("empty/empty gradient %v", gradient.MaxAbs())
	}
}

func TestLossGradShapePanic(t *testing.T) {
	sim := testSim(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape-mismatch panic")
		}
	}()
	sim.LossGrad(grid.NewMat(testN, testN), grid.NewMat(testN/2, testN/2), LossOpts{Stretch: 1})
}

func TestGradientDescentStepReducesLoss(t *testing.T) {
	sim := testSim(t)
	target := centredSquare(testN, 20)
	mask := target.Clone().Scale(0.9)
	l0, g := sim.LossGrad(mask, target, LossOpts{Stretch: 1})
	// Take a small step along -g.
	step := 0.05 / g.MaxAbs()
	mask.AddScaled(g, -step)
	l1, _ := sim.LossGrad(mask, target, LossOpts{Stretch: 1})
	if l1 >= l0 {
		t.Fatalf("descent step increased loss: %v -> %v", l0, l1)
	}
}

func TestPreparedCacheIsStable(t *testing.T) {
	sim := testSim(t)
	p1 := sim.preparedFor(FocusNominal, testN, 1)
	p2 := sim.preparedFor(FocusNominal, testN, 1)
	if p1 != p2 {
		t.Fatal("prepared kernels must be cached")
	}
	p3 := sim.preparedFor(FocusDefocus, testN, 1)
	if p3 == p1 {
		t.Fatal("focus conditions must not share cache entries")
	}
}

func TestConditionAccessors(t *testing.T) {
	sim := testSim(t)
	if sim.Nominal().Dose != 1 || sim.Nominal().Focus != FocusNominal {
		t.Fatal("bad nominal condition")
	}
	if in := sim.Inner(); in.Focus != FocusDefocus || math.Abs(in.Dose-0.98) > 1e-12 {
		t.Fatalf("bad inner condition %+v", in)
	}
	if out := sim.Outer(); out.Focus != FocusNominal || math.Abs(out.Dose-1.02) > 1e-12 {
		t.Fatalf("bad outer condition %+v", out)
	}
}
