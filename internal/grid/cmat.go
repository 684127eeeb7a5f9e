package grid

import (
	"fmt"
	"math/cmplx"
)

// CMat is a dense H×W matrix of complex128, stored row-major. It holds
// FFT spectra and coherent field amplitudes.
type CMat struct {
	H, W int
	Data []complex128
}

// NewCMat returns a zeroed h×w complex matrix.
func NewCMat(h, w int) *CMat {
	if h <= 0 || w <= 0 {
		panic(fmt.Sprintf("grid: invalid CMat size %dx%d", h, w))
	}
	return &CMat{H: h, W: w, Data: make([]complex128, h*w)}
}

// At returns the element at row y, column x.
func (m *CMat) At(y, x int) complex128 { return m.Data[y*m.W+x] }

// Set assigns the element at row y, column x.
func (m *CMat) Set(y, x int, v complex128) { m.Data[y*m.W+x] = v }

// Row returns the y-th row as a sub-slice of the backing storage.
func (m *CMat) Row(y int) []complex128 { return m.Data[y*m.W : (y+1)*m.W] }

// Clone returns a deep copy of m.
func (m *CMat) Clone() *CMat {
	out := NewCMat(m.H, m.W)
	copy(out.Data, m.Data)
	return out
}

// SameShape reports whether m and o have identical dimensions.
func (m *CMat) SameShape(o *CMat) bool { return m.H == o.H && m.W == o.W }

func (m *CMat) mustSameShape(o *CMat, op string) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("grid: %s shape mismatch %dx%d vs %dx%d", op, m.H, m.W, o.H, o.W))
	}
}

// Zero sets every element to 0 and returns m.
func (m *CMat) Zero() *CMat {
	for i := range m.Data {
		m.Data[i] = 0
	}
	return m
}

// Scale multiplies every element by s and returns m.
func (m *CMat) Scale(s complex128) *CMat {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddAbsSqScaled adds s*|m|² element-wise into dst and returns dst.
func (m *CMat) AddAbsSqScaled(dst *Mat, s float64) *Mat {
	if dst.H != m.H || dst.W != m.W {
		panic("grid: AddAbsSqScaled shape mismatch")
	}
	for i, v := range m.Data {
		re, im := real(v), imag(v)
		dst.Data[i] += s * (re*re + im*im)
	}
	return dst
}

// MaxAbs returns the largest element magnitude.
func (m *CMat) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.Data {
		if a := cmplx.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// AlmostEqual reports whether m and o are shape-equal with every element
// within tol in magnitude of their difference.
func (m *CMat) AlmostEqual(o *CMat, tol float64) bool {
	if !m.SameShape(o) {
		return false
	}
	for i, v := range m.Data {
		if cmplx.Abs(v-o.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String summarizes the matrix for debugging.
func (m *CMat) String() string {
	return fmt.Sprintf("CMat(%dx%d, max|.|=%.4g)", m.H, m.W, m.MaxAbs())
}
