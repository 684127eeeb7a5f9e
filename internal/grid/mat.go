// Package grid provides the dense 2-D matrix types used throughout the
// ILT pipeline: Mat for real-valued images (targets, masks, aerial images)
// and CMat for complex-valued spectra and field amplitudes.
//
// Matrices are stored row-major in a single backing slice. All operations
// that have a natural in-place form mutate the receiver and return it so
// calls can be chained; operations that must produce fresh storage say so
// in their names (Clone, Crop, ...).
package grid

import "fmt"

// Mat is a dense H×W matrix of float64, stored row-major.
type Mat struct {
	H, W int
	Data []float64
}

// NewMat returns a zeroed h×w matrix. It panics if either dimension is
// not positive; matrix dimensions are structural program invariants here,
// not runtime inputs.
func NewMat(h, w int) *Mat {
	if h <= 0 || w <= 0 {
		panic(fmt.Sprintf("grid: invalid Mat size %dx%d", h, w))
	}
	return &Mat{H: h, W: w, Data: make([]float64, h*w)}
}

// At returns the element at row y, column x.
func (m *Mat) At(y, x int) float64 { return m.Data[y*m.W+x] }

// Set assigns the element at row y, column x.
func (m *Mat) Set(y, x int, v float64) { m.Data[y*m.W+x] = v }

// Row returns the y-th row as a sub-slice of the backing storage.
func (m *Mat) Row(y int) []float64 { return m.Data[y*m.W : (y+1)*m.W] }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.H, m.W)
	copy(out.Data, m.Data)
	return out
}

// SameShape reports whether m and o have identical dimensions.
func (m *Mat) SameShape(o *Mat) bool { return m.H == o.H && m.W == o.W }

func (m *Mat) mustSameShape(o *Mat, op string) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("grid: %s shape mismatch %dx%d vs %dx%d", op, m.H, m.W, o.H, o.W))
	}
}

// Sub subtracts o element-wise from m and returns m.
func (m *Mat) Sub(o *Mat) *Mat {
	m.mustSameShape(o, "Sub")
	for i, v := range o.Data {
		m.Data[i] -= v
	}
	return m
}

// Scale multiplies every element by s and returns m.
func (m *Mat) Scale(s float64) *Mat {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddScaled adds s*o element-wise into m and returns m.
func (m *Mat) AddScaled(o *Mat, s float64) *Mat {
	m.mustSameShape(o, "AddScaled")
	for i, v := range o.Data {
		m.Data[i] += s * v
	}
	return m
}

// Clamp limits every element to [lo, hi] and returns m.
func (m *Mat) Clamp(lo, hi float64) *Mat {
	for i, v := range m.Data {
		if v < lo {
			m.Data[i] = lo
		} else if v > hi {
			m.Data[i] = hi
		}
	}
	return m
}

// Sum returns the sum of all elements.
func (m *Mat) Sum() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v
	}
	return s
}

// MaxAbs returns the largest absolute element value.
func (m *Mat) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.Data {
		if v < 0 {
			v = -v
		}
		if v > mx {
			mx = v
		}
	}
	return mx
}

// L2Diff returns the squared L2 distance ||m-o||².
func (m *Mat) L2Diff(o *Mat) float64 {
	m.mustSameShape(o, "L2Diff")
	s := 0.0
	for i, v := range m.Data {
		d := v - o.Data[i]
		s += d * d
	}
	return s
}

// CountAbove returns the number of elements strictly greater than t.
func (m *Mat) CountAbove(t float64) int {
	n := 0
	for _, v := range m.Data {
		if v > t {
			n++
		}
	}
	return n
}

// Binarize returns a fresh matrix holding 1 where m > threshold and 0
// elsewhere.
func (m *Mat) Binarize(threshold float64) *Mat {
	out := NewMat(m.H, m.W)
	for i, v := range m.Data {
		if v > threshold {
			out.Data[i] = 1
		}
	}
	return out
}

// BinarizeInPlace thresholds m in place to {0,1} and returns m.
func (m *Mat) BinarizeInPlace(threshold float64) *Mat {
	for i, v := range m.Data {
		if v > threshold {
			m.Data[i] = 1
		} else {
			m.Data[i] = 0
		}
	}
	return m
}

// Crop returns a fresh h×w matrix copied from m starting at (y0, x0).
// The rectangle must lie fully inside m.
func (m *Mat) Crop(y0, x0, h, w int) *Mat {
	if y0 < 0 || x0 < 0 || y0+h > m.H || x0+w > m.W {
		panic(fmt.Sprintf("grid: Crop (%d,%d)+%dx%d exceeds %dx%d", y0, x0, h, w, m.H, m.W))
	}
	out := NewMat(h, w)
	for y := 0; y < h; y++ {
		copy(out.Row(y), m.Data[(y0+y)*m.W+x0:(y0+y)*m.W+x0+w])
	}
	return out
}

// Paste copies src into m with src's top-left corner at (y0, x0).
// The rectangle must lie fully inside m. Returns m.
func (m *Mat) Paste(src *Mat, y0, x0 int) *Mat {
	if y0 < 0 || x0 < 0 || y0+src.H > m.H || x0+src.W > m.W {
		panic(fmt.Sprintf("grid: Paste (%d,%d)+%dx%d exceeds %dx%d", y0, x0, src.H, src.W, m.H, m.W))
	}
	for y := 0; y < src.H; y++ {
		copy(m.Data[(y0+y)*m.W+x0:(y0+y)*m.W+x0+src.W], src.Row(y))
	}
	return m
}

// PasteWeighted blends src into m at (y0, x0) using the per-pixel weight
// matrix w (same shape as src): m = (1-w)*m + w*src over the rectangle.
// Returns m.
func (m *Mat) PasteWeighted(src, w *Mat, y0, x0 int) *Mat {
	src.mustSameShape(w, "PasteWeighted")
	if y0 < 0 || x0 < 0 || y0+src.H > m.H || x0+src.W > m.W {
		panic(fmt.Sprintf("grid: PasteWeighted (%d,%d)+%dx%d exceeds %dx%d", y0, x0, src.H, src.W, m.H, m.W))
	}
	for y := 0; y < src.H; y++ {
		dst := m.Data[(y0+y)*m.W+x0 : (y0+y)*m.W+x0+src.W]
		sr := src.Row(y)
		wr := w.Row(y)
		for x := range dst {
			dst[x] = (1-wr[x])*dst[x] + wr[x]*sr[x]
		}
	}
	return m
}

// AccumulateWeighted adds w*src into m at (y0, x0). Used by partition-of-
// unity assembly where the weights of all tiles sum to one. Returns m.
func (m *Mat) AccumulateWeighted(src, w *Mat, y0, x0 int) *Mat {
	src.mustSameShape(w, "AccumulateWeighted")
	if y0 < 0 || x0 < 0 || y0+src.H > m.H || x0+src.W > m.W {
		panic(fmt.Sprintf("grid: AccumulateWeighted (%d,%d)+%dx%d exceeds %dx%d", y0, x0, src.H, src.W, m.H, m.W))
	}
	for y := 0; y < src.H; y++ {
		dst := m.Data[(y0+y)*m.W+x0 : (y0+y)*m.W+x0+src.W]
		sr := src.Row(y)
		wr := w.Row(y)
		for x := range dst {
			dst[x] += wr[x] * sr[x]
		}
	}
	return m
}

// Equal reports whether m and o have the same shape and identical data.
func (m *Mat) Equal(o *Mat) bool {
	if !m.SameShape(o) {
		return false
	}
	for i, v := range m.Data {
		if o.Data[i] != v {
			return false
		}
	}
	return true
}

// AlmostEqual reports whether m and o are shape-equal with every element
// within tol.
func (m *Mat) AlmostEqual(o *Mat, tol float64) bool {
	if !m.SameShape(o) {
		return false
	}
	for i, v := range m.Data {
		d := v - o.Data[i]
		if d < -tol || d > tol {
			return false
		}
	}
	return true
}

// String summarizes the matrix for debugging.
func (m *Mat) String() string {
	return fmt.Sprintf("Mat(%dx%d, sum=%.4g, max|.|=%.4g)", m.H, m.W, m.Sum(), m.MaxAbs())
}
