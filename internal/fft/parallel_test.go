package fft

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"mgsilt/internal/grid"
	"mgsilt/internal/parallel"
)

func randCMat(rng *rand.Rand, h, w int) *grid.CMat {
	m := grid.NewCMat(h, w)
	copy(m.Data, randComplex(rng, h*w))
	return m
}

// TestTransform2DParallelEquivalence pins the bit-identity contract of
// the parallel row/column fan-out: every (row, column) 1-D transform
// writes a disjoint slice, so chunking must not change a single bit.
// 256² is at the crossover, so the parallel path actually runs.
func TestTransform2DParallelEquivalence(t *testing.T) {
	const n = 256
	if n*n < 2*parallel.Grain {
		t.Fatalf("test size %d² below two grains of %d; parallel path not exercised", n, parallel.Grain)
	}
	rng := rand.New(rand.NewSource(99))
	src := randCMat(rng, n, n)

	run := func(workers int, inverse bool) *grid.CMat {
		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)
		m := src.Clone()
		if inverse {
			Inverse2D(m)
		} else {
			Forward2D(m)
		}
		return m
	}

	for _, inverse := range []bool{false, true} {
		ref := run(1, inverse)
		for _, w := range []int{2, 4, 7} {
			got := run(w, inverse)
			for i := range ref.Data {
				if got.Data[i] != ref.Data[i] {
					t.Fatalf("inverse=%v workers=%d: element %d differs: %v vs %v",
						inverse, w, i, got.Data[i], ref.Data[i])
				}
			}
		}
	}
}

// TestTransform2DBelowCrossoverStaysSerial documents the dispatch
// condition: a 32² matrix is less than two grains of work and never
// forks, whatever the pool width.
func TestTransform2DBelowCrossoverStaysSerial(t *testing.T) {
	prev := parallel.SetWorkers(4)
	defer parallel.SetWorkers(prev)
	const n = 32
	if fanOut(0, n*n) != 1 {
		t.Fatalf("a %d² transform fans out over %d goroutines", n, fanOut(0, n*n))
	}
	rng := rand.New(rand.NewSource(3))
	m := randCMat(rng, n, n)
	ref := m.Clone()
	Forward2D(m)
	Inverse2D(m)
	if !m.AlmostEqual(ref, 1e-9) {
		t.Fatal("round trip failed below crossover")
	}
}

// TestTransform2DSteadyStateAllocs guards the contract the 2-D entries
// carry into litho.LossGrad's allocation gate: a warm transform
// allocates nothing, whether it stays on its caller (pool width 1, or a
// 32² matrix at any width) or fans out (48² and up, and the batches at
// width 2) — the fanned-out passes run through a
// pooled descriptor with its chunk functions bound ahead of time, not
// through a closure per section.
func TestTransform2DSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer parallel.SetWorkers(parallel.Workers())
	// A garbage collection empties the scratch and descriptor pools, and
	// the next transform re-allocates from them, so one cycle among the
	// counted runs would fail the zero pin whatever the transform does.
	// The collector is held off while counting, after one collection that
	// finishes any cycle under way.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	rng := rand.New(rand.NewSource(5))
	for _, width := range []int{1, 2} {
		parallel.SetWorkers(width)
		for _, n := range []int{32, 48, 64, 96, 128} {
			m := randCMat(rng, n, n)
			batch := []*grid.CMat{randCMat(rng, n, n), randCMat(rng, n, n), randCMat(rng, n, n)}
			src, out := randMat(rng, n, n), grid.NewMat(n, n)
			live := make([]bool, n)
			for y := range live {
				live[y] = y < n/8 || y >= n-n/8
			}
			entries := map[string]func(){
				"Forward2D":            func() { Forward2D(m) },
				"Inverse2D":            func() { Inverse2D(m) },
				"Inverse2DPruned":      func() { Inverse2DPruned(m, live) },
				"Forward2DBand":        func() { Forward2DBand(m, live) },
				"ForwardReal2DBand":    func() { ForwardReal2DBand(m, src, n/8) },
				"InverseRealBand":      func() { InverseRealBand(out, m, n/8, 1) },
				"Batch2D":              func() { Batch2D(batch, DirForward) },
				"Batch2DInversePruned": func() { Batch2DInversePruned(batch, live, 0) },
				"Batch2DForwardBand":   func() { Batch2DForwardBand(batch, live, 0) },
			}
			for name, run := range entries {
				run() // warm the plan cache, the scratch pools and the pass descriptors
				if allocs := testing.AllocsPerRun(10, run); allocs > 0.5 {
					t.Errorf("width %d, %s %d²: %.1f allocs/op, want 0", width, name, n, allocs)
				}
			}
		}
	}
}

func BenchmarkTransform2D(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{128, 512} {
		src := randCMat(rng, n, n)
		for _, w := range []int{1, 4} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				prev := parallel.SetWorkers(w)
				defer parallel.SetWorkers(prev)
				m := src.Clone()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					Forward2D(m)
					Inverse2D(m)
				}
			})
		}
	}
}
