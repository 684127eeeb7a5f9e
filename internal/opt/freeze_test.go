package opt

import (
	"math"
	"testing"

	"mgsilt/internal/grid"
	"mgsilt/internal/litho"
)

// ringFreeze freezes everything outside the central half of the grid.
func ringFreeze(n int) *grid.Mat {
	f := grid.NewMat(n, n)
	for i := range f.Data {
		f.Data[i] = 1
	}
	for y := n / 4; y < 3*n/4; y++ {
		for x := n / 4; x < 3*n/4; x++ {
			f.Set(y, x, 0)
		}
	}
	return f
}

func TestPixelFreezeHoldsDirichletData(t *testing.T) {
	sim := testSim(t)
	target := testTarget()
	init := target.Clone().Scale(0.7) // distinctive non-binary boundary data
	freeze := ringFreeze(testN)
	solver := NewPixel(sim)
	out, err := solver.Solve(target, init, Params{Iters: 6, LR: 0.4, Stretch: 1, Freeze: freeze})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range freeze.Data {
		if f >= 0.5 && out.Data[i] != init.Data[i] {
			t.Fatalf("frozen pixel %d changed: %v -> %v", i, init.Data[i], out.Data[i])
		}
	}
	// Interior must have actually been optimised (some change).
	changed := false
	for i, f := range freeze.Data {
		if f < 0.5 && math.Abs(out.Data[i]-init.Data[i]) > 1e-6 {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("free region did not move")
	}
}

func TestLevelSetFreezeHoldsDirichletData(t *testing.T) {
	sim := testSim(t)
	target := testTarget()
	freeze := ringFreeze(testN)
	solver := NewLevelSet(sim)
	out, err := solver.Solve(target, target, Params{Iters: 6, LR: 0.4, Stretch: 1, Freeze: freeze})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range freeze.Data {
		if f >= 0.5 && out.Data[i] != target.Data[i] {
			t.Fatalf("frozen pixel %d changed: %v -> %v", i, target.Data[i], out.Data[i])
		}
	}
}

func TestMultiLevelFreezeHoldsDirichletData(t *testing.T) {
	sim := testSim(t)
	target := testTarget()
	freeze := ringFreeze(testN)
	solver := NewMultiLevel(sim)
	out, err := solver.Solve(target, target, Params{Iters: 8, LR: 0.4, Stretch: 1, Freeze: freeze})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range freeze.Data {
		if f >= 0.5 && out.Data[i] != target.Data[i] {
			t.Fatalf("frozen pixel %d changed: %v -> %v", i, target.Data[i], out.Data[i])
		}
	}
}

func TestFreezeShapeValidation(t *testing.T) {
	sim := testSim(t)
	target := testTarget()
	bad := grid.NewMat(testN/2, testN/2)
	if _, err := NewPixel(sim).Solve(target, target, Params{Iters: 1, LR: 0.4, Stretch: 1, Freeze: bad}); err == nil {
		t.Fatal("expected freeze shape error")
	}
}

func TestAnnealedSolveIsNearBinary(t *testing.T) {
	sim := testSim(t)
	target := testTarget()
	solver := NewPixel(sim)
	out, err := solver.Solve(target, target, Params{Iters: 30, LR: 0.4, Stretch: 1})
	if err != nil {
		t.Fatal(err)
	}
	gray := 0
	for _, v := range out.Data {
		if v > 0.2 && v < 0.8 {
			gray++
		}
	}
	frac := float64(gray) / float64(len(out.Data))
	if frac > 0.08 {
		t.Fatalf("annealed mask still %.1f%% gray", 100*frac)
	}
}

func TestNoAnnealKeepsConstantSlope(t *testing.T) {
	sim := testSim(t)
	solver := NewPixel(sim)
	target := testTarget()
	// One iteration has nothing to anneal over: it runs, and the final
	// mask is taken, at the initial slope.
	if _, err := solver.Solve(target, target, Params{Iters: 1, LR: 0.4, Stretch: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestWarmRestartIsGentle(t *testing.T) {
	// Re-solving from a converged mask with a fresh optimiser must not
	// blow up the loss — the property the staged Schwarz flow needs.
	sim := testSim(t)
	target := testTarget()
	solver := NewPixel(sim)
	first, err := solver.Solve(target, target, Params{Iters: 25, LR: 0.4, Stretch: 1})
	if err != nil {
		t.Fatal(err)
	}
	l1, _ := sim.LossGrad(first, target, lossOpts())
	second, err := solver.Solve(target, first, Params{Iters: 5, LR: 0.4, Stretch: 1})
	if err != nil {
		t.Fatal(err)
	}
	l2, _ := sim.LossGrad(second, target, lossOpts())
	if l2 > 1.5*l1+1 {
		t.Fatalf("warm restart degraded loss %v -> %v", l1, l2)
	}
}

func lossOpts() litho.LossOpts { return litho.LossOpts{Stretch: 1} }
