package litho

import (
	"testing"

	"mgsilt/internal/grid"
)

// AerialScaled computes the coarse-grid aerial image of Eq. (9): mask
// is a factor-stretch downsampled representation (each mask pixel spans
// stretch fine pixels), simulated with stretched kernels on the mask's
// own grid. The flows reach this evaluation through LossGrad's Stretch;
// the tests call it directly.
func (s *Simulator) AerialScaled(mask *grid.Mat, stretch int, cond Condition) *grid.Mat {
	return s.aerial(mask, stretch, cond.Focus)
}

func TestKernelStretchCases(t *testing.T) {
	sim := testSim(t) // N = 64
	cases := []struct {
		size, pixel, want int
	}{
		{64, 1, 1},  // native
		{128, 1, 2}, // Eq. (3) full-area
		{64, 2, 2},  // Eq. (9) coarse grid
		{32, 2, 1},  // multi-level sub-native grid
		{128, 2, 4}, // coarse grid of a double-size tile
		{256, 1, 4}, // larger full-area
		{32, 4, 2},  // deep pyramid level
	}
	for _, c := range cases {
		if got := sim.kernelStretch(c.size, c.pixel); got != c.want {
			t.Fatalf("kernelStretch(%d,%d)=%d want %d", c.size, c.pixel, got, c.want)
		}
	}
}

func TestKernelStretchPanicsWhenNotCoveringN(t *testing.T) {
	sim := testSim(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 32px grid at stretch 1 (covers < N)")
		}
	}()
	sim.kernelStretch(32, 1)
}

func TestAerialScaledSubNativeGrid(t *testing.T) {
	// A 32² mask with pixel stretch 2 covers exactly N=64 fine pixels:
	// the simulation must run and approximate the downsampled native
	// aerial image.
	sim := testSim(t)
	mask := centredSquare(testN, 24)
	fine := sim.Aerial(mask, sim.Nominal()).Downsample(2)
	coarse := sim.AerialScaled(mask.Downsample(2), 2, sim.Nominal())
	if !coarse.AlmostEqual(fine, 0.1) {
		t.Fatal("sub-native scaled aerial far from downsampled native aerial")
	}
}

func TestWaferScaled(t *testing.T) {
	sim := testSim(t)
	mask := centredSquare(testN, 32)
	fine := sim.Wafer(mask, sim.Nominal()).Downsample(2).BinarizeInPlace(0.5)
	coarse := sim.PrintResist(sim.AerialScaled(mask.Downsample(2), 2, sim.Nominal()), sim.Nominal().Dose)
	diff := fine.L2Diff(coarse)
	if diff > 0.1*fine.Sum() {
		t.Fatalf("scaled wafer differs on %v px of %v", diff, fine.Sum())
	}
}

func BenchmarkLossGrad64(b *testing.B) {
	sim := simN(b, 64, false)
	target := centredSquare(64, 24)
	mask := target.Clone().Scale(0.9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, grad := sim.LossGrad(mask, target, LossOpts{Stretch: 1})
		grid.PutMat(grad)
	}
}

func BenchmarkAerial128(b *testing.B) {
	sim := simN(b, 128, false)
	mask := centredSquare(128, 48)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid.PutMat(sim.Aerial(mask, sim.Nominal()))
	}
}
