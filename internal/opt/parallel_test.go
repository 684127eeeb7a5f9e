package opt

import (
	"math"
	"runtime"
	"testing"

	"mgsilt/internal/grid"
	"mgsilt/internal/litho"
	"mgsilt/internal/parallel"
)

// barsTarget is two horizontal bars on an n×n tile.
func barsTarget(n int) *grid.Mat {
	m := grid.NewMat(n, n)
	for x := n / 8; x < 7*n/8; x++ {
		for y := 5 * n / 16; y < 7*n/16; y++ {
			m.Set(y, x, 1)
		}
		for y := 10 * n / 16; y < 12*n/16; y++ {
			m.Set(y, x, 1)
		}
	}
	return m
}

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

// TestPixelSolveWorkerBitIdentity pins serial ≡ fanned-out for the
// descent loop at the two tile sizes the flows solve: the mask-sigmoid
// sweep and the dθ/freeze/Adam sweep split by pixel range over the
// pool, on top of everything litho fans out under them. The
// masks of Solve and of SolveBatch must carry the serial bits at every
// pool width, frozen margin included.
func TestPixelSolveWorkerBitIdentity(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	for _, n := range []int{64, 128} {
		sim, err := litho.NewStandard(n)
		if err != nil {
			t.Fatal(err)
		}
		s := NewPixel(sim)
		freeze := grid.NewMat(n, n)
		for y := 0; y < n; y++ {
			for x := 0; x < n/8; x++ {
				freeze.Set(y, x, 1)
			}
		}
		targets := []*grid.Mat{barsTarget(n), barsTarget(n), barsTarget(n)}
		targets[1].Set(n/2, n/2, 1)
		targets[2].Set(n/4, n/2, 1)
		inits := []*grid.Mat{targets[0].Clone(), targets[1].Clone(), targets[2].Clone()}
		ps := []Params{
			{Iters: 5, LR: 1.2, Stretch: 1},
			{Iters: 5, LR: 1.2, Stretch: 1, Freeze: freeze},
			{Iters: 5, LR: 1.2, Stretch: 1},
		}

		parallel.SetWorkers(1)
		want := make([]*grid.Mat, len(targets))
		for i := range targets {
			if want[i], err = s.Solve(targets[i], inits[i], ps[i]); err != nil {
				t.Fatal(err)
			}
		}
		for _, w := range []int{2, 3, runtime.NumCPU()} {
			parallel.SetWorkers(w)
			for i := range targets {
				got, err := s.Solve(targets[i], inits[i], ps[i])
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got, want[i]) {
					t.Fatalf("N=%d workers=%d: Solve of tile %d differs from the serial mask", n, w, i)
				}
			}
			outs, errs := s.SolveBatch(targets, inits, ps)
			for i := range targets {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if !sameBits(outs[i], want[i]) {
					t.Fatalf("N=%d workers=%d: SolveBatch tile %d differs from the serial Solve", n, w, i)
				}
			}
		}
	}
}
