package fft

import (
	"fmt"

	"mgsilt/internal/grid"
	"mgsilt/internal/parallel"
)

// Dir selects the transform direction of a batched 2-D pass.
type Dir int

const (
	// DirForward is the unnormalised forward transform.
	DirForward Dir = iota
	// DirInverse is the inverse transform with the 1/n per-dimension
	// normalisation.
	DirInverse
)

// Batch2D transforms every matrix of the batch in place, equivalent to
// calling Forward2D/Inverse2D on each — bit-identically so — but with
// all k·H rows fanned out over the shared worker pool in ONE parallel
// section and all column strips in a second, instead of 2k nested
// sections. The Hopkins pipeline runs its k per-kernel convolution
// buffers through exactly two barrier pairs per condition this way.
// All matrices must share one power-of-two shape.
func Batch2D(ms []*grid.CMat, dir Dir) { Batch2DLimit(ms, dir, 0) }

// Batch2DLimit is Batch2D with the parallel fan-out capped at limit
// participating goroutines (0 = the pool width, 1 = strictly serial).
// Like every parallel path in this package the output is bit-identical
// at any limit: each row and each column strip is transformed by one
// goroutine.
func Batch2DLimit(ms []*grid.CMat, dir Dir, limit int) {
	k := len(ms)
	if k == 0 {
		return
	}
	h, w := ms[0].H, ms[0].W
	for i, m := range ms {
		if m.H != h || m.W != w {
			panic(fmt.Sprintf("fft: Batch2D shape mismatch: matrix %d is %dx%d, want %dx%d", i, m.H, m.W, h, w))
		}
	}
	rowPlan := planFor(w)
	colPlan := planFor(h)
	inverse := dir == DirInverse
	if limit <= 0 {
		limit = parallel.Workers()
	}
	if limit == 1 || parallel.Workers() == 1 || k*h*w < parallelCrossover {
		for _, m := range ms {
			for y := 0; y < h; y++ {
				rowPlan.transform(m.Row(y), inverse)
			}
			colPlan.columnsPass(m, 0, w, inverse)
		}
		return
	}

	// Row fan-out: one flat index space over all k·H rows, so small
	// per-kernel buffers still load-balance across the pool.
	parallel.DoChunks(k*h, limit, func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			rowPlan.transform(ms[idx/h].Row(idx%h), inverse)
		}
	})
	colPlan.batchColumns(ms, inverse, limit)
}
