package opt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mgsilt/internal/grid"
	"mgsilt/internal/kernels"
	"mgsilt/internal/litho"
)

const testN = 64

func testSim(t testing.TB) *litho.Simulator {
	t.Helper()
	cfg := kernels.DefaultConfig(testN)
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

// testTarget is a pair of wires with a jog — small enough to be hard
// for the optics, structured enough to need real optimisation.
func testTarget() *grid.Mat {
	m := grid.NewMat(testN, testN)
	for x := 8; x < 56; x++ {
		for y := 20; y < 28; y++ {
			m.Set(y, x, 1)
		}
		for y := 40; y < 48; y++ {
			m.Set(y, x, 1)
		}
	}
	for y := 20; y < 48; y++ { // jog connecting the wires
		for x := 30; x < 38; x++ {
			m.Set(y, x, 1)
		}
	}
	return m
}

func resistLoss(t *testing.T, sim *litho.Simulator, mask, target *grid.Mat) float64 {
	t.Helper()
	loss, _ := sim.LossGrad(mask, target, litho.LossOpts{Stretch: 1})
	return loss
}

func TestParamsValidate(t *testing.T) {
	good := Params{Iters: 1, LR: 0.1, Stretch: 1}
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{Iters: -1, LR: 0.1, Stretch: 1},
		{Iters: 1, LR: 0, Stretch: 1},
		{Iters: 1, LR: 0.1, Stretch: 0},
		{Iters: 1, LR: 0.1, Stretch: 1, PVWeight: -1},
	}
	for i, p := range bad {
		if err := p.validate(); err == nil {
			t.Fatalf("params case %d should fail", i)
		}
	}
}

func TestAdamMinimisesQuadratic(t *testing.T) {
	// f(x) = Σ (x_i - i)², ∇f = 2(x - target).
	params := make([]float64, 5)
	adam := NewAdam(5)
	g := make([]float64, 5)
	for it := 0; it < 500; it++ {
		for i := range params {
			g[i] = 2 * (params[i] - float64(i))
		}
		adam.tick()
		adam.stepRange(params, g, 0.05, 0, len(params))
	}
	for i, v := range params {
		if math.Abs(v-float64(i)) > 0.05 {
			t.Fatalf("param %d = %v, want %d", i, v, i)
		}
	}
}

func TestAdamPanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	adam := NewAdam(3)
	adam.tick()
	adam.stepRange(make([]float64, 4), make([]float64, 4), 0.1, 0, 4)
}

func TestLogitInvertsSigmoid(t *testing.T) {
	for _, x := range []float64{0.1, 0.3, 0.5, 0.9} {
		if got := litho.Sigmoid(logit(x, 1e-6)); math.Abs(got-x) > 1e-9 {
			t.Fatalf("sigmoid(logit(%v)) = %v", x, got)
		}
	}
	// Clamped extremes must stay finite.
	if math.IsInf(logit(0, 1e-4), 0) || math.IsInf(logit(1, 1e-4), 0) {
		t.Fatal("logit must clamp the poles")
	}
}

func TestSignedDistanceBasic(t *testing.T) {
	b := grid.NewMat(16, 16)
	for y := 4; y < 12; y++ {
		for x := 4; x < 12; x++ {
			b.Set(y, x, 1)
		}
	}
	sd := SignedDistance(b)
	if sd.At(8, 8) <= 0 {
		t.Fatalf("centre must be inside (positive), got %v", sd.At(8, 8))
	}
	if sd.At(0, 0) >= 0 {
		t.Fatalf("corner must be outside (negative), got %v", sd.At(0, 0))
	}
	// Centre of an 8×8 square is ~3.5 px from the boundary.
	if c := sd.At(8, 8); c < 2.5 || c > 4.5 {
		t.Fatalf("centre distance %v implausible", c)
	}
	// Adjacent pixels across the boundary bracket zero.
	if !(sd.At(8, 4) > 0 && sd.At(8, 3) < 0) {
		t.Fatalf("no zero crossing at boundary: %v %v", sd.At(8, 4), sd.At(8, 3))
	}
}

func TestSignedDistanceMonotoneFromEdge(t *testing.T) {
	b := grid.NewMat(16, 32)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			b.Set(y, x, 1)
		}
	}
	sd := SignedDistance(b)
	// Moving right from the boundary (x=16) outward, distance becomes
	// increasingly negative.
	for x := 17; x < 30; x++ {
		if sd.At(8, x) >= sd.At(8, x-1) {
			t.Fatalf("outside distance not decreasing at x=%d", x)
		}
	}
}

func TestPixelSolveImproves(t *testing.T) {
	sim := testSim(t)
	target := testTarget()
	solver := NewPixel(sim)
	if solver.Name() != "pixel-ilt" {
		t.Fatalf("name %q", solver.Name())
	}
	before := resistLoss(t, sim, target, target)
	mask, err := solver.Solve(target, target, Params{Iters: 15, LR: 0.6, Stretch: 1})
	if err != nil {
		t.Fatal(err)
	}
	after := resistLoss(t, sim, mask, target)
	if after >= before {
		t.Fatalf("pixel ILT did not improve: %v -> %v", before, after)
	}
	for _, v := range mask.Data {
		if v < 0 || v > 1 {
			t.Fatalf("mask value %v out of range", v)
		}
	}
}

func TestPixelSolveRejectsBadParams(t *testing.T) {
	solver := NewPixel(testSim(t))
	if _, err := solver.Solve(testTarget(), testTarget(), Params{Iters: 1, LR: 0, Stretch: 1}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestPixelZeroIterationsReturnsLiftedInit(t *testing.T) {
	solver := NewPixel(testSim(t))
	target := testTarget()
	mask, err := solver.Solve(target, target, Params{Iters: 0, LR: 1, Stretch: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Foreground stays ~1, background is lifted to the bias, not 0.
	if mask.At(24, 30) < 0.9 {
		t.Fatalf("foreground %v", mask.At(24, 30))
	}
	if bg := mask.At(0, 0); math.Abs(bg-pixelBias) > 0.02 {
		t.Fatalf("background %v want ≈%v", bg, pixelBias)
	}
}

func TestLevelSetSolveImprovesAndStaysClean(t *testing.T) {
	sim := testSim(t)
	target := testTarget()
	solver := NewLevelSet(sim)
	if solver.Name() != "gls-ilt" {
		t.Fatalf("name %q", solver.Name())
	}
	before := resistLoss(t, sim, target, target)
	mask, err := solver.Solve(target, target, Params{Iters: 15, LR: 0.4, Stretch: 1})
	if err != nil {
		t.Fatal(err)
	}
	after := resistLoss(t, sim, mask, target)
	if after >= before {
		t.Fatalf("level-set ILT did not improve: %v -> %v", before, after)
	}
	// No SRAF nucleation: pixels far from any target shape stay dark.
	// The target occupies y∈[20,48); the top-left corner is >12px away.
	for y := 0; y < 6; y++ {
		for x := 0; x < 6; x++ {
			if mask.At(y, x) > 0.5 {
				t.Fatalf("level-set nucleated mask at %d,%d = %v", y, x, mask.At(y, x))
			}
		}
	}
}

func TestLevelSetRejectsBadParams(t *testing.T) {
	solver := NewLevelSet(testSim(t))
	if _, err := solver.Solve(testTarget(), testTarget(), Params{Iters: 1, LR: 0.1, Stretch: 0}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestMultiLevelSolveImproves(t *testing.T) {
	sim := testSim(t)
	target := testTarget()
	solver := NewMultiLevel(sim)
	if solver.Name() != "multi-level-ilt" {
		t.Fatalf("name %q", solver.Name())
	}
	before := resistLoss(t, sim, target, target)
	mask, err := solver.Solve(target, target, Params{Iters: 16, LR: 0.6, Stretch: 1})
	if err != nil {
		t.Fatal(err)
	}
	after := resistLoss(t, sim, mask, target)
	if after >= before {
		t.Fatalf("multi-level ILT did not improve: %v -> %v", before, after)
	}
}

// TestMultiLevelDepth pins the unclamped pyramid height 2 + log2(size/N):
// the DAC'23 two levels on an N tile, one more per doubling of the input,
// which on a whole clip is the Table 1 full-chip reference.
func TestMultiLevelDepth(t *testing.T) {
	for _, c := range []struct{ size, n, want int }{
		{64, 64, 2}, {128, 64, 3}, {256, 64, 4},
		{128, 128, 2}, {256, 128, 3}, {512, 128, 4},
	} {
		if got := depth(c.size, c.n); got != c.want {
			t.Errorf("depth(%d, N=%d) = %d, want %d", c.size, c.n, got, c.want)
		}
	}
}

// TestMultiLevelClampsPyramidOnSmallGrids pins the clamps on the depth:
// the coarsest level keeps at least 32 px and a litho stretch of at most
// 4, and a pyramid that cannot keep both collapses to one level.
func TestMultiLevelClampsPyramidOnSmallGrids(t *testing.T) {
	for _, c := range []struct{ size, n, stretch, want int }{
		{64, 64, 1, 2},   // an N tile: the two-level schedule
		{128, 64, 1, 3},  // a 2N clip: one level more
		{256, 64, 1, 3},  // 4 levels would stretch the coarsest by 8
		{64, 32, 1, 2},   // a 2N clip at N = 32: 3 levels would hit 16 px
		{128, 128, 2, 2}, // a coarse grid's tile: 2·2 ≤ 4
		{64, 64, 4, 1},   // stretch 4 leaves no room for a coarser level
		{32, 32, 1, 1},   // a 16 px level is not a usable grid
	} {
		if got := levels(c.size, c.n, c.stretch); got != c.want {
			t.Errorf("levels(%d, N=%d, stretch %d) = %d, want %d", c.size, c.n, c.stretch, got, c.want)
		}
	}
	// On the 64² test grid at N = 32 the 3-level pyramid is clamped, and
	// the solve runs rather than fails.
	sim, err := litho.NewStandard(32)
	if err != nil {
		t.Fatal(err)
	}
	target := testTarget()
	if _, err := NewMultiLevel(sim).Solve(target, target, Params{Iters: 6, LR: 0.5, Stretch: 1}); err != nil {
		t.Fatalf("clamped pyramid failed: %v", err)
	}
}

// refAddLaplacian is addLaplacian as it was written before its rows were
// indexed directly: five neighbours through a clamping closure per pixel.
func refAddLaplacian(gm, mask *grid.Mat, w float64) {
	h, wd := mask.H, mask.W
	at := func(y, x int) float64 {
		return mask.At(min(max(y, 0), h-1), min(max(x, 0), wd-1))
	}
	for y := 0; y < h; y++ {
		for x := 0; x < wd; x++ {
			lap := 4*at(y, x) - at(y-1, x) - at(y+1, x) - at(y, x-1) - at(y, x+1)
			gm.Data[y*wd+x] += w * lap
		}
	}
}

func TestAddLaplacianBitIdentical(t *testing.T) {
	for _, sh := range [][2]int{{1, 1}, {1, 9}, {9, 1}, {2, 2}, {3, 2}, {5, 7}, {128, 128}} {
		mask, got := grid.NewMat(sh[0], sh[1]), grid.NewMat(sh[0], sh[1])
		for i := range mask.Data {
			// Irrational-ish values, so that a reordered sum rounds differently.
			mask.Data[i] = math.Sin(float64(3*i + 1))
			got.Data[i] = math.Cos(float64(i))
		}
		want := got.Clone()
		// In chunks of three rows, as the worker pool may cut them.
		for y := 0; y < sh[0]; y += 3 {
			addLaplacian(got, mask, 0.2, y, min(y+3, sh[0]))
		}
		refAddLaplacian(want, mask, 0.2)
		for i, v := range got.Data {
			if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%dx%d: pixel %d is %v, the closure form gives %v", sh[0], sh[1], i, v, want.Data[i])
			}
		}
	}
}

// smoothEnergy is the smoothness energy ½·Σ|∇M|² with forward
// differences and no flux through the border: every pair of 4-adjacent
// pixels contributes ½·(difference)² once.
func smoothEnergy(m *grid.Mat) float64 {
	e := 0.0
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			if x+1 < m.W {
				d := m.At(y, x+1) - m.At(y, x)
				e += d * d
			}
			if y+1 < m.H {
				d := m.At(y+1, x) - m.At(y, x)
				e += d * d
			}
		}
	}
	return e / 2
}

// TestPixelGradCentralDifference is the gradient oracle of the Pixel
// descent loop. ∂F/∂θ is assembled from the loop's own sweeps in its
// order — LossGrad, the smoothness term of laplacianSweep, the sigmoid
// chain rule of descentSweep — and compared with a central difference
// of F(θ) = loss(σ(slope·θ)) + w·E(σ(slope·θ)), E being smoothEnergy.
// The w = 0 rows leave the Laplacian step out.
// litho's TestLossGradCentralDifference covers the loss term alone.
func TestPixelGradCentralDifference(t *testing.T) {
	sim := testSim(t)
	target := testTarget()
	const slope = 4.0
	for _, w := range []float64{0, pixelSmooth} {
		for _, pv := range []float64{0, 0.3} {
			t.Run(fmt.Sprintf("w=%g/pv=%g", w, pv), func(t *testing.T) {
				rng := rand.New(rand.NewSource(7))
				n := testN * testN
				st := &tileState{
					theta: make([]float64, n), dTheta: make([]float64, n),
					mask: grid.NewMat(testN, testN), adam: NewAdam(n),
					slope: slope,
				}
				for i := range st.theta {
					st.theta[i] = logit(target.Data[i]*0.8+0.1+0.05*rng.Float64(), 1e-4) / slope
				}
				opts := litho.LossOpts{Stretch: 1, PVWeight: pv}
				objective := func() float64 {
					st.maskSweep(0, n)
					loss, g := sim.LossGrad(st.mask, target, opts)
					grid.PutMat(g)
					return loss + w*smoothEnergy(st.mask)
				}

				st.maskSweep(0, n)
				_, st.gm = sim.LossGrad(st.mask, target, opts)
				if w > 0 {
					st.laplacianSweep(0, testN)
				}
				st.adam.tick()
				st.descentSweep(0, n) // lr 0: fills dTheta, leaves θ alone
				grad := append([]float64(nil), st.dTheta...)

				const eps = 1e-5
				checks := 0
				for trial := 0; trial < 400 && checks < 10; trial++ {
					i := rng.Intn(n)
					if math.Abs(grad[i]) < 1e-4 {
						continue // numerically flat pixel
					}
					orig := st.theta[i]
					st.theta[i] = orig + eps
					fp := objective()
					st.theta[i] = orig - eps
					fm := objective()
					st.theta[i] = orig
					fd := (fp - fm) / (2 * eps)
					if math.Abs(fd-grad[i]) > 1e-4*(math.Abs(fd)+math.Abs(grad[i]))+1e-6 {
						t.Fatalf("pixel %d: assembled ∂F/∂θ %v vs central difference %v", i, grad[i], fd)
					}
					checks++
				}
				if checks < 8 {
					t.Fatalf("only %d gradient checks ran", checks)
				}
			})
		}
	}
}
