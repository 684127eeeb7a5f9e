package litho

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"mgsilt/internal/grid"
	"mgsilt/internal/parallel"
)

// atWorkers runs fn with the shared pool pinned to the given width
// (0 = the start-up default) and restores the previous width.
func atWorkers(workers int, fn func()) {
	prev := parallel.Workers()
	parallel.SetWorkers(workers)
	defer parallel.SetWorkers(prev)
	fn()
}

func randomMask(n int, seed int64) *grid.Mat {
	rng := rand.New(rand.NewSource(seed))
	m := grid.NewMat(n, n)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

// TestParallelEquivalence is the bit-identity contract of the worker
// pool: Aerial and LossGrad must produce exactly the same bits at any
// worker count, because the parallel path accumulates per-kernel
// partials into private buffers and reduces them in kernel order,
// replaying the serial floating-point addition sequence.
func TestParallelEquivalence(t *testing.T) {
	mask := randomMask(testN, 42)
	target := centredSquare(testN, 24)
	sim := testSim(t)
	opts := LossOpts{Stretch: 1, PVWeight: 0.5}

	var refAerial, refGrad *grid.Mat
	var refLoss float64
	atWorkers(1, func() {
		refAerial = sim.Aerial(mask, sim.Nominal())
		refLoss, refGrad = sim.LossGrad(mask, target, opts)
	})

	for _, w := range []int{2, 3, runtime.NumCPU(), 0} {
		atWorkers(w, func() {
			aerial := sim.Aerial(mask, sim.Nominal())
			if !aerial.Equal(refAerial) {
				t.Fatalf("workers=%d: Aerial not bit-identical to serial", w)
			}
			loss, grad := sim.LossGrad(mask, target, opts)
			if loss != refLoss {
				t.Fatalf("workers=%d: loss %v != serial %v", w, loss, refLoss)
			}
			if !grad.Equal(refGrad) {
				t.Fatalf("workers=%d: LossGrad gradient not bit-identical to serial", w)
			}
		})
	}
}

// TestParallelEquivalenceStretched covers the coarse-grid path
// (kernel stretch > 1) used by the multigrid levels.
func TestParallelEquivalenceStretched(t *testing.T) {
	const size = 2 * testN
	mask := randomMask(size, 7)
	target := centredSquare(size, 48)
	sim := testSim(t)

	var refAerial, refGrad *grid.Mat
	var refLoss float64
	atWorkers(1, func() {
		refAerial = sim.AerialScaled(mask, 2, sim.Nominal())
		refLoss, refGrad = sim.LossGrad(mask, target, LossOpts{Stretch: 2})
	})

	atWorkers(4, func() {
		if !sim.AerialScaled(mask, 2, sim.Nominal()).Equal(refAerial) {
			t.Fatal("stretched Aerial not bit-identical to serial")
		}
		loss, grad := sim.LossGrad(mask, target, LossOpts{Stretch: 2})
		if loss != refLoss || !grad.Equal(refGrad) {
			t.Fatal("stretched LossGrad not bit-identical to serial")
		}
	})
}

// sameBits reports whether two matrices hold the same float64 bit
// patterns (so that -0 ≠ +0 and a NaN equals itself).
func sameBits(a, b *grid.Mat) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestParallelEquivalenceTileSizes pins serial ≡ fanned-out at the two
// tile sizes the flows solve, where the batched transforms, the
// element-wise steps between them and the resist sweep — whose scalar
// loss is summed in pixel order by whichever goroutines the chunking
// happens to give the head and the tail of each pair — are all parallel
// sections (two goroutines' worth at N=64, the pool's at N=128). Loss
// and gradient must match the serial bits at every pool width, alone and
// in a batch, with and without the process-window corners.
func TestParallelEquivalenceTileSizes(t *testing.T) {
	for _, n := range []int{64, 128} {
		sim := simN(t, n, false)
		masks := make([]*grid.Mat, 3)
		targets := make([]*grid.Mat, 3)
		for i := range masks {
			masks[i] = randomMask(n, int64(10*n+i))
			targets[i] = centredSquare(n, n/4+n/16*i)
		}
		for _, opts := range []LossOpts{{Stretch: 1}, {Stretch: 1, PVWeight: 0.5}} {
			wantLoss := make([]float64, len(masks))
			wantGrad := make([]*grid.Mat, len(masks))
			atWorkers(1, func() {
				for i := range masks {
					wantLoss[i], wantGrad[i] = sim.LossGrad(masks[i], targets[i], opts)
				}
			})
			for _, w := range []int{2, 3, runtime.NumCPU()} {
				atWorkers(w, func() {
					for i := range masks {
						loss, grad := sim.LossGrad(masks[i], targets[i], opts)
						if math.Float64bits(loss) != math.Float64bits(wantLoss[i]) || !sameBits(grad, wantGrad[i]) {
							t.Fatalf("N=%d pv=%v workers=%d: LossGrad of pair %d differs from serial", n, opts.PVWeight, w, i)
						}
					}
					losses, grads := sim.LossGradBatch(masks, targets, opts)
					for i := range masks {
						if math.Float64bits(losses[i]) != math.Float64bits(wantLoss[i]) || !sameBits(grads[i], wantGrad[i]) {
							t.Fatalf("N=%d pv=%v workers=%d: batched pair %d differs from lone serial LossGrad", n, opts.PVWeight, w, i)
						}
					}
				})
			}
		}
	}
}

func benchWorkers(b *testing.B, workers int, fn func(sim *Simulator)) {
	sim := testSim(b)
	atWorkers(workers, func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fn(sim)
		}
	})
}

func BenchmarkAerial(b *testing.B) {
	mask := randomMask(testN, 1)
	for _, w := range []int{1, 2, 4} {
		b.Run(benchName(w), func(b *testing.B) {
			benchWorkers(b, w, func(sim *Simulator) {
				grid.PutMat(sim.Aerial(mask, sim.Nominal()))
			})
		})
	}
}

// BenchmarkLossGrad measures one gradient evaluation at the two shapes
// the flows run: testN with the process-window corners, and N=128 with
// PVWeight 0 — what an ours-256 tile solve spends its time in.
func BenchmarkLossGrad(b *testing.B) {
	shapes := []struct {
		name    string
		n       int
		workers []int
		opts    LossOpts
	}{
		{"", testN, []int{1, 2, 4}, LossOpts{Stretch: 1, PVWeight: 0.5}},
		{"N=128/pv=0/", 128, []int{1, 2}, LossOpts{Stretch: 1}},
	}
	for _, sh := range shapes {
		mask := randomMask(sh.n, 2)
		target := centredSquare(sh.n, 3*sh.n/8)
		for _, w := range sh.workers {
			b.Run(sh.name+benchName(w), func(b *testing.B) {
				prev := parallel.Workers()
				defer parallel.SetWorkers(prev)
				parallel.SetWorkers(w)
				sim := simN(b, sh.n, false)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, grad := sim.LossGrad(mask, target, sh.opts)
					grid.PutMat(grad)
				}
			})
		}
	}
}

// BenchmarkSigmoid sweeps Sigmoid over the 128² pixels of an N=128 tile,
// arguments spread over the clamp range like the resist's and the mask's,
// against the math.Exp form it replaced.
func BenchmarkSigmoid(b *testing.B) {
	xs := make([]float64, 128*128)
	rng := rand.New(rand.NewSource(4))
	for i := range xs {
		xs[i] = 30 * (2*rng.Float64() - 1)
	}
	out := make([]float64, len(xs))
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, x := range xs {
				out[j] = Sigmoid(x)
			}
		}
	})
	b.Run("math.Exp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, x := range xs {
				out[j] = 1 / (1 + math.Exp(-x))
			}
		}
	})
}

func benchName(workers int) string {
	return fmt.Sprintf("workers=%d", workers)
}
