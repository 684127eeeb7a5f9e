package grid

import "sync"

// Size-keyed free lists for the FFT-heavy hot paths. A LossGrad
// evaluation allocates on the order of (kernels+4) full-size matrices;
// recycling them keeps the single-threaded GC out of the inner loop.
// Matrices obtained from the pools carry arbitrary prior contents —
// callers must overwrite or zero them.
var (
	matPools  sync.Map // int -> *sync.Pool of *Mat
	cmatPools sync.Map // int -> *sync.Pool of *CMat
)

// poolFor returns the per-size pool from m, creating it on first use.
// The Load fast path keeps the hot Get/Put calls allocation-free:
// LoadOrStore boxes its key and allocates the candidate pool on every
// call, while Load's key never escapes.
func poolFor(m *sync.Map, size int) *sync.Pool {
	if v, ok := m.Load(size); ok {
		return v.(*sync.Pool)
	}
	v, _ := m.LoadOrStore(size, &sync.Pool{})
	return v.(*sync.Pool)
}

// GetMat returns an h×w matrix from the pool (contents undefined).
func GetMat(h, w int) *Mat {
	if v := poolFor(&matPools, h*w).Get(); v != nil {
		m := v.(*Mat)
		m.H, m.W = h, w
		return m
	}
	return NewMat(h, w)
}

// PutMat returns a matrix to the pool. The caller must not use it
// afterwards. Matrices whose backing slice does not match their shape
// (cropped or aliased views) are silently dropped: admitting one would
// poison the H*W bucket and hand a short slice to a later GetMat.
func PutMat(m *Mat) {
	if m == nil || len(m.Data) != m.H*m.W {
		return
	}
	// Keyed by H*W, which after the check above equals len(m.Data) —
	// the same key GetMat uses.
	poolFor(&matPools, m.H*m.W).Put(m)
}

// GetCMat returns an h×w complex matrix from the pool (contents
// undefined).
func GetCMat(h, w int) *CMat {
	if v := poolFor(&cmatPools, h*w).Get(); v != nil {
		m := v.(*CMat)
		m.H, m.W = h, w
		return m
	}
	return NewCMat(h, w)
}

// PutCMat returns a complex matrix to the pool. The caller must not
// use it afterwards. Mis-shaped matrices (len(Data) != H*W) are
// silently dropped, mirroring PutMat.
func PutCMat(m *CMat) {
	if m == nil || len(m.Data) != m.H*m.W {
		return
	}
	poolFor(&cmatPools, m.H*m.W).Put(m)
}

// PutMats returns every non-nil matrix of the batch to the pool and
// clears the slice entries, so callers can hand back partially-built
// batches.
func PutMats(ms []*Mat) {
	for i, m := range ms {
		PutMat(m)
		ms[i] = nil
	}
}

// PutCMats returns every non-nil complex matrix of the batch to the
// pool and clears the slice entries.
func PutCMats(ms []*CMat) {
	for i, m := range ms {
		PutCMat(m)
		ms[i] = nil
	}
}
