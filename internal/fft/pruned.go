package fft

import "mgsilt/internal/grid"

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
// result is bit-identical to the dense inverse — pruning is exact, not
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

// Inverse2DPruned computes the in-place 2-D inverse FFT of m, skipping
// the 1-D row transforms of rows whose rowLive entry is false. Every
// dead row must contain only +0 entries; the output is then
// bit-identical to the dense inverse at any worker count.
func Inverse2DPruned(m *grid.CMat, rowLive []bool) {
	xform2D{rowLive: rowLive, inverse: true}.one(m)
}

// Forward2DBand computes the forward FFT of m columns-first and
// restricts the second (row) pass to rows whose rowLive entry is true.
// Live rows of the result are bit-identical to the dense columns-first
// forward transform at any worker count; dead rows hold unspecified
// mid-transform values and must not be read. See the comment above for
// why output pruning requires the columns-first pass order.
func Forward2DBand(m *grid.CMat, rowLive []bool) {
	xform2D{rowLive: rowLive, colsFirst: true}.one(m)
}

// Batch2DInversePruned runs Inverse2DPruned over every matrix of the
// batch with the shared row mask — bit-identical to a dense Batch2D
// inverse when the dead-row contract holds. limit caps the
// participating goroutines (0 = pool width, 1 = strictly serial).
func Batch2DInversePruned(ms []*grid.CMat, rowLive []bool, limit int) {
	xform2D{rowLive: rowLive, inverse: true}.batch(ms, limit)
}

// Batch2DForwardBand runs Forward2DBand over every matrix of the batch
// with the shared row mask. limit caps the participating goroutines
// (0 = pool width, 1 = strictly serial).
func Batch2DForwardBand(ms []*grid.CMat, rowLive []bool, limit int) {
	xform2D{rowLive: rowLive, colsFirst: true}.batch(ms, limit)
}
