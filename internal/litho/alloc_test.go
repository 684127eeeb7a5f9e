package litho

import (
	"testing"

	"mgsilt/internal/grid"
	"mgsilt/internal/parallel"
)

// TestLossGradSteadyStateAllocs is the allocation regression gate for
// the frequency-domain hot path: once the size-keyed pools are warm, a
// LossGrad evaluation must run allocation-free — on its caller (pool
// width 1) and fanned out (width 2, where every batched transform,
// element-wise step and the resist sweep of both tile sizes is a
// parallel section). Any structural regression — a fresh make in a
// transform pass, an escaping closure handed to the pool, a pool key
// mismatch — shows up here as a hard failure long before it shows up as
// GC time in a benchmark.
func TestLossGradSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer parallel.SetWorkers(parallel.Workers())
	for _, n := range []int{testN, 128} {
		sim := simN(t, n, false)
		target := centredSquare(n, 3*n/8)
		mask := target.Clone().Scale(0.9)
		run := func() {
			_, grad := sim.LossGrad(mask, target, LossOpts{Stretch: 1})
			grid.PutMat(grad)
		}
		for _, width := range []int{1, 2} {
			parallel.SetWorkers(width)
			// Warm every size-keyed pool (field batches, spectra, scratch)
			// and the pool's section descriptors.
			for i := 0; i < 3; i++ {
				run()
			}
			// The steady state must be allocation-free. AllocsPerRun averages
			// over repeats, so a single stray GC-triggered pool eviction cannot
			// push the mean over the 0.5 budget — but a per-call allocation
			// lands at ≥1 and fails.
			if allocs := testing.AllocsPerRun(10, run); allocs > 0.5 {
				t.Errorf("N=%d, pool width %d: LossGrad steady state allocates %.1f times per op, want 0", n, width, allocs)
			}
		}
	}
}

// TestAerialSteadyStateAllocs is the same gate for the imaging path, on
// a tile and on a 4N clip (N=64: M=96, whose six fields fan out at
// width 2), at pool widths 1 and 2.
func TestAerialSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer parallel.SetWorkers(parallel.Workers())
	sim := testSim(t)
	for _, size := range []int{testN, 4 * testN} {
		mask := centredSquare(size, 3*size/8)
		run := func() {
			grid.PutMat(sim.Aerial(mask, sim.Nominal()))
		}
		for _, width := range []int{1, 2} {
			parallel.SetWorkers(width)
			for i := 0; i < 3; i++ {
				run()
			}
			if allocs := testing.AllocsPerRun(10, run); allocs > 0.5 {
				t.Errorf("size %d, pool width %d: Aerial steady state allocates %.1f times per op, want 0", size, width, allocs)
			}
		}
	}
}
