package litho

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"mgsilt/internal/fft"
	"mgsilt/internal/grid"
	"mgsilt/internal/kernels"
	"mgsilt/internal/parallel"
)

// Fingerprint returns a stable content hash of everything that
// determines this simulator's outputs: both kernel sets (spectra and
// weights, bit-exact) and the resist configuration. Config.Workers is
// excluded — parallelism is bit-identical to serial by contract, so it
// cannot change results. Two simulators with equal fingerprints
// produce equal aerial images and gradients for equal inputs, which is
// what lets the tile cache address results by content.
func (s *Simulator) Fingerprint() string {
	s.fpOnce.Do(func() {
		h := sha256.New()
		buf := make([]byte, 8)
		w64 := func(v uint64) {
			binary.BigEndian.PutUint64(buf, v)
			h.Write(buf)
		}
		f64 := func(v float64) { w64(math.Float64bits(v)) }
		w64(uint64(s.n))
		f64(s.cfg.Threshold)
		f64(s.cfg.SigmoidSteep)
		f64(s.cfg.DoseDelta)
		// The default kernel budget changes outputs when < 1, so it is
		// part of the content identity (per-call budgets are hashed by
		// the tile-cache key instead, see internal/cache.KeyInput).
		f64(canonFidelity(s.cfg.Fidelity))
		hashSet := func(set *kernels.Set) {
			w64(uint64(set.N))
			w64(uint64(set.P))
			f64(set.Defocus)
			w64(uint64(len(set.Kernels)))
			for _, k := range set.Kernels {
				f64(k.Weight)
				w64(uint64(k.Freq.H))
				w64(uint64(k.Freq.W))
				for _, c := range k.Freq.Data {
					f64(real(c))
					f64(imag(c))
				}
			}
		}
		hashSet(s.nominal)
		hashSet(s.defocus)
		s.fp = fmt.Sprintf("litho:%x", h.Sum(nil))
	})
	return s.fp
}

// LossGradBatch evaluates LossGrad for T (mask, target) pairs sharing
// one geometry and one LossOpts, amortising the FFT work: per process
// condition, the k·T per-kernel field spectra of the whole batch go
// through ONE batched transform (fft.Batch2D) in each direction
// instead of T separate k-wide batches, so the two-barrier transform
// fan-out spans the entire batch.
//
// Results are bit-identical to calling LossGrad per pair: each pair's
// kernel partials are reduced in kernel order by its own accumulators,
// and batching a transform never changes any individual matrix's bits
// (each matrix's rows and columns are transformed independently).
//
// Returned gradients are pooled like LossGrad's (grid.PutMat to
// recycle). Empty input returns empty slices.
func (s *Simulator) LossGradBatch(masks, targets []*grid.Mat, opts LossOpts) ([]float64, []*grid.Mat) {
	if len(masks) != len(targets) {
		panic(fmt.Sprintf("litho: %d masks vs %d targets", len(masks), len(targets)))
	}
	if len(masks) == 0 {
		return nil, nil
	}
	size := masks[0].H
	for i, m := range masks {
		if !m.SameShape(targets[i]) {
			panic(fmt.Sprintf("litho: mask %dx%d vs target %dx%d", m.H, m.W, targets[i].H, targets[i].W))
		}
		if m.H != size || m.W != size {
			panic(fmt.Sprintf("litho: batch member %d is %dx%d, want %dx%d", i, m.H, m.W, size, size))
		}
	}
	injectAerial()
	stretch := opts.Stretch
	if stretch < 1 {
		panic("litho: LossOpts.Stretch must be >= 1")
	}
	ks := s.kernelStretch(size, stretch)
	fidelity := s.effFidelity(opts.Fidelity)

	T := len(masks)
	losses := make([]float64, T)
	grads := make([]*grid.Mat, T)
	fms := make([]*grid.CMat, T)
	for i := range masks {
		grads[i] = grid.GetMat(size, size).Zero()
		fms[i] = grid.GetCMat(size, size)
	}
	limit := s.workersFor(T)
	band := s.maskBand(size, ks, fidelity, opts.PVWeight > 0)
	parallel.Do(T, limit, func(i int) { fft.ForwardReal2DBand(fms[i], masks[i], band) })

	s.lossGradConditionBatch(fms, targets, s.Nominal(), ks, fidelity, 1, losses, grads)
	if opts.PVWeight > 0 {
		s.lossGradConditionBatch(fms, targets, s.Inner(), ks, fidelity, opts.PVWeight, losses, grads)
		s.lossGradConditionBatch(fms, targets, s.Outer(), ks, fidelity, opts.PVWeight, losses, grads)
	}
	for _, fm := range fms {
		grid.PutCMat(fm)
	}
	return losses, grads
}

// lossGradConditionBatch is lossGradCondition over a batch: the k·T
// reduced-grid field buffers of all pairs share each batched transform,
// and every pair reduces its own k kernel partials in kernel order and
// crosses between the grids on its own — the exact floating-point
// sequence of the single-pair path.
func (s *Simulator) lossGradConditionBatch(fms []*grid.CMat, targets []*grid.Mat, cond Condition, kernelStretch int, fidelity, weight float64, losses []float64, grads []*grid.Mat) {
	size := fms[0].H
	r := s.preparedFor(cond.Focus, size, kernelStretch, fidelity).solver()
	k, m := len(r.fwd), r.m
	T := len(fms)
	kt := k * T
	limit := s.fanOut(kt, m)
	tileWorkers := min(limit, T)
	kernelsEvaluated.Add(int64(kt))

	// Forward pass: field i*k+j is pair i's kernel-j spectrum. One
	// fan-out builds all k·T products; one batched transform inverts
	// them; each pair then reduces its own fields serially in kernel
	// order into its own intensity.
	specs := make([]*grid.CMat, T)
	parallel.Do(T, tileWorkers, func(i int) { specs[i] = r.cropMask(fms[i]) })
	fs := getFields(kt, m, m)
	fields := fs.cm
	parallel.Do(kt, limit, func(f int) { prodLive(fields[f], specs[f/k], r.fwd[f%k], r.fwdLive) })
	fft.Batch2DInversePruned(fields, r.fwdLive, limit)

	gs := make([]*grid.Mat, T) // per-pair low-passed ∂L/∂I on the M grid
	parallel.Do(T, tileWorkers, func(i int) {
		if specs[i] != fms[i] {
			grid.PutCMat(specs[i])
		}
		intensity := grid.GetMat(m, m).Zero()
		for j := 0; j < k; j++ {
			fields[i*k+j].AddAbsSqScaled(intensity, r.weights[j])
		}
		// Resist + loss, serial per pair: the scalar accumulation is
		// order-sensitive and must replay the single-pair sweep.
		intensity = r.upsample(intensity)
		g := grid.GetMat(size, size)
		losses[i] += weight * s.resistLoss(intensity, targets[i], cond.Dose, g)
		grid.PutMat(intensity)
		gs[i] = r.lowpass(g)
	})

	// Adjoint pass: q overwrites each field in place, one batched
	// forward transform covers all k·T, then each pair accumulates its
	// kernels in kernel order and inverts its own accumulator.
	parallel.Do(kt, limit, func(f int) { mulRealConj(fields[f], gs[f/k]) })
	fft.Batch2DForwardBand(fields, r.adjLive, limit)
	// Like the single-pair path, the adjoint products and the per-pair
	// reductions only touch the adjoint row support, so the band-limited
	// forward may leave every dead output row mid-transform; its live
	// rows match the single-pair transform bit for bit.
	parallel.Do(kt, limit, func(f int) { mulRows(fields[f], r.adj[f%k], r.adjRows) })
	accs := make([]*grid.CMat, T)
	parallel.Do(T, tileWorkers, func(i int) {
		acc := grid.GetCMat(m, m).Zero()
		for j := 0; j < k; j++ {
			addRows(acc, fields[i*k+j], r.adjRows)
		}
		accs[i] = r.embed(acc)
	})
	fft.Batch2DInversePruned(accs, r.rows1, tileWorkers)
	parallel.Do(T, tileWorkers, func(i int) {
		grad := grads[i]
		for j := range grad.Data {
			grad.Data[j] += weight * real(accs[i].Data[j])
		}
	})
	grid.PutCMats(accs)
	fs.release()
	grid.PutMats(gs)
}
