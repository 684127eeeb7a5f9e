package litho

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"mgsilt/internal/grid"
	"mgsilt/internal/kernels"
)

// Fingerprint returns a stable content hash of everything that
// determines this simulator's outputs: both kernel sets (spectra and
// weights, bit-exact) and the resist configuration. Two simulators with
// equal fingerprints produce equal aerial images and gradients for equal
// inputs, which is what lets the tile cache address results by content.
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
// through one batched transform in each direction, so the two-barrier
// transform fan-out spans the entire batch.
//
// Each pair's loss and gradient carry the bits of a lone LossGrad — the
// same routine at T = 1 — whatever else is in the batch.
//
// Returned gradients are pooled like LossGrad's (grid.PutMat to
// recycle). Empty input returns empty slices.
func (s *Simulator) LossGradBatch(masks, targets []*grid.Mat, opts LossOpts) ([]float64, []*grid.Mat) {
	if len(masks) == 0 && len(targets) == 0 {
		return nil, nil
	}
	e := evaluationPool.Get().(*evaluation)
	e.run(s, masks, targets, opts)
	losses, grads := append([]float64(nil), e.losses...), append([]*grid.Mat(nil), e.grads...)
	e.release()
	return losses, grads
}
