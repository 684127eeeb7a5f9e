package fft

import (
	"fmt"

	"mgsilt/internal/grid"
	"mgsilt/internal/parallel"
)

// Pruned transforms: band-limited row support on the spectrum side.
//
// The Hopkins per-kernel product spectrum H_k ⊙ F(M) inherits the
// band-limited support of the kernel: in corner layout only the rows
// intersecting the pupil disk hold non-zero coefficients, every other
// row is exactly +0. The rows-then-columns inverse transform of such a
// matrix wastes most of its row pass on all-zero rows, because a 1-D
// transform of an all-(+0) row is again all (+0): every butterfly
// output is an additive chain that starts from an untwiddled +0 input
// term, and x + (±0) == x for x == +0 under round-to-nearest, so the
// sign of a twiddled zero product can never escape. TestZeroRowTransform
// locks that property down at the bit level for every plan shape.
//
// Inverse2DPruned exploits it: the caller passes a row-support mask and
// the row pass only transforms the live rows; the column pass then runs
// exactly as in the dense transform (after the row pass the live rows
// are spatially dense, so no column can be skipped). The
// result is bit-identical to Inverse2D — pruning is exact, not
// approximate — provided the contract holds that every dead row contains
// only +0 entries. The litho hot path guarantees that by writing its
// per-kernel products row-restricted and explicitly zero-filling dead
// rows of the pooled buffers.
//
// Forward2DBand is the mirror image for the adjoint direction: there the
// input is spatially dense but the consumer only reads the spectrum rows
// inside the pupil band (the product against a band-limited adjoint
// kernel spectrum annihilates everything else). A rows-then-columns
// forward cannot skip anything — the row index of the output is produced
// by the column pass, whose decimation-in-time butterflies share their
// intermediates across all outputs. Running the separable transform in
// the other order, columns first, makes the output row index final after
// the first pass, so the second (row) pass can simply skip every row the
// caller will not read. The pruning is exact: live rows carry precisely
// the 1-D transforms the dense columns-first transform would produce,
// bit for bit at any worker count (TestForward2DBand locks this down);
// dead rows are left mid-transform and hold unspecified values. Note the
// columns-first operand grouping rounds differently than Forward2D's
// rows-first grouping — the two dense orders agree only to floating-point
// accuracy, so a caller switching an existing pipeline onto this path
// changes result bits once, at the accuracy level, not the exactness of
// the pruning.

// checkRowMask validates the row-support mask length against h.
func checkRowMask(rowLive []bool, h int) {
	if len(rowLive) != h {
		panic(fmt.Sprintf("fft: row mask length %d does not match height %d", len(rowLive), h))
	}
}

// Inverse2DPruned computes the in-place 2-D inverse FFT of m, skipping
// the 1-D row transforms of rows whose rowLive entry is false. Every
// dead row must contain only +0 entries; the output is then
// bit-identical to Inverse2D(m) at any worker count.
func Inverse2DPruned(m *grid.CMat, rowLive []bool) {
	checkRowMask(rowLive, m.H)
	rowPlan := planFor(m.W)
	colPlan := planFor(m.H)
	if m.H*m.W >= parallelCrossover && parallel.Workers() > 1 {
		inverse2DPrunedParallel(m, rowLive, rowPlan, colPlan)
		return
	}
	for y := 0; y < m.H; y++ {
		if rowLive[y] {
			rowPlan.transform(m.Row(y), true)
		}
	}
	colPlan.columnsPass(m, 0, m.W, true)
}

func inverse2DPrunedParallel(m *grid.CMat, rowLive []bool, rowPlan, colPlan *plan) {
	live := liveRows(rowLive)
	parallel.DoChunks(len(live), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rowPlan.transform(m.Row(live[i]), true)
		}
	})
	parallel.DoChunks(m.W, 0, func(lo, hi int) {
		colPlan.columnsPass(m, lo, hi, true)
	})
}

// liveRows flattens a row mask into the slice of live row indices.
func liveRows(rowLive []bool) []int {
	live := make([]int, 0, len(rowLive))
	for y, ok := range rowLive {
		if ok {
			live = append(live, y)
		}
	}
	return live
}

// Forward2DBand computes the forward FFT of m columns-first and
// restricts the second (row) pass to rows whose rowLive entry is true.
// Live rows of the result are bit-identical to the dense columns-first
// forward transform at any worker count; dead rows hold unspecified
// mid-transform values and must not be read. See the package comment
// for why output pruning requires the columns-first pass order.
func Forward2DBand(m *grid.CMat, rowLive []bool) {
	checkRowMask(rowLive, m.H)
	rowPlan := planFor(m.W)
	colPlan := planFor(m.H)
	if m.H*m.W >= parallelCrossover && parallel.Workers() > 1 {
		forward2DBandParallel(m, rowLive, rowPlan, colPlan)
		return
	}
	colPlan.columnsPass(m, 0, m.W, false)
	for y := 0; y < m.H; y++ {
		if rowLive[y] {
			rowPlan.transform(m.Row(y), false)
		}
	}
}

func forward2DBandParallel(m *grid.CMat, rowLive []bool, rowPlan, colPlan *plan) {
	parallel.DoChunks(m.W, 0, func(lo, hi int) {
		colPlan.columnsPass(m, lo, hi, false)
	})
	live := liveRows(rowLive)
	parallel.DoChunks(len(live), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			rowPlan.transform(m.Row(live[i]), false)
		}
	})
}

// Batch2DForwardBand runs the band-limited forward transform over every
// matrix of the batch, equivalent to calling Forward2DBand on each with
// the shared row mask. Like Batch2DInversePruned the column fan-out
// covers all column strips in one parallel section and the row fan-out
// all live (matrix, row) pairs in a second; limit caps the participating
// goroutines (0 = pool width, 1 = strictly serial).
func Batch2DForwardBand(ms []*grid.CMat, rowLive []bool, limit int) {
	k := len(ms)
	if k == 0 {
		return
	}
	h, w := ms[0].H, ms[0].W
	checkRowMask(rowLive, h)
	for i, m := range ms {
		if m.H != h || m.W != w {
			panic(fmt.Sprintf("fft: Batch2DForwardBand shape mismatch: matrix %d is %dx%d, want %dx%d", i, m.H, m.W, h, w))
		}
	}
	rowPlan := planFor(w)
	colPlan := planFor(h)
	if limit <= 0 {
		limit = parallel.Workers()
	}
	if limit == 1 || parallel.Workers() == 1 || k*h*w < parallelCrossover {
		for _, m := range ms {
			colPlan.columnsPass(m, 0, w, false)
			for y := 0; y < h; y++ {
				if rowLive[y] {
					rowPlan.transform(m.Row(y), false)
				}
			}
		}
		return
	}

	colPlan.batchColumns(ms, false, limit)
	live := liveRows(rowLive)
	nl := len(live)
	if nl > 0 {
		parallel.DoChunks(k*nl, limit, func(lo, hi int) {
			for idx := lo; idx < hi; idx++ {
				rowPlan.transform(ms[idx/nl].Row(live[idx%nl]), false)
			}
		})
	}
}

// Batch2DInversePruned runs the pruned inverse transform over every
// matrix of the batch, equivalent to calling Inverse2DPruned on each
// with the shared row mask — and therefore bit-identical to a dense
// Batch2D inverse when the dead-row contract holds. Like Batch2DLimit
// the row fan-out covers all live (matrix, row) pairs in one parallel
// section and the column fan-out all column strips in a second; limit
// caps the participating goroutines (0 = pool width, 1 = strictly
// serial).
func Batch2DInversePruned(ms []*grid.CMat, rowLive []bool, limit int) {
	k := len(ms)
	if k == 0 {
		return
	}
	h, w := ms[0].H, ms[0].W
	checkRowMask(rowLive, h)
	for i, m := range ms {
		if m.H != h || m.W != w {
			panic(fmt.Sprintf("fft: Batch2DInversePruned shape mismatch: matrix %d is %dx%d, want %dx%d", i, m.H, m.W, h, w))
		}
	}
	rowPlan := planFor(w)
	colPlan := planFor(h)
	if limit <= 0 {
		limit = parallel.Workers()
	}
	if limit == 1 || parallel.Workers() == 1 || k*h*w < parallelCrossover {
		for _, m := range ms {
			for y := 0; y < h; y++ {
				if rowLive[y] {
					rowPlan.transform(m.Row(y), true)
				}
			}
			colPlan.columnsPass(m, 0, w, true)
		}
		return
	}

	live := liveRows(rowLive)
	nl := len(live)
	if nl > 0 {
		parallel.DoChunks(k*nl, limit, func(lo, hi int) {
			for idx := lo; idx < hi; idx++ {
				rowPlan.transform(ms[idx/nl].Row(live[idx%nl]), true)
			}
		})
	}
	colPlan.batchColumns(ms, true, limit)
}
