package fft

import "mgsilt/internal/grid"

// The plain transforms, which the library itself never calls: the
// tests check the 1-D plan against the DFT through them and compare the
// real, pruned and batched 2-D variants to Forward2D and Inverse2D.

// Forward computes the in-place forward FFT of x (length must be a
// power of two).
func Forward(x []complex128) { planFor(len(x)).transform(x, false) }

// Inverse computes the in-place inverse FFT of x, including the 1/n
// normalisation.
func Inverse(x []complex128) { planFor(len(x)).transform(x, true) }

// Forward2D computes the in-place 2-D forward FFT of m (rows then
// columns).
func Forward2D(m *grid.CMat) { xform2D{}.one(m) }

// Inverse2D computes the in-place 2-D inverse FFT of m.
func Inverse2D(m *grid.CMat) { xform2D{inverse: true}.one(m) }

// ForwardReal transforms a real matrix into a freshly allocated
// corner-layout spectrum.
func ForwardReal(m *grid.Mat) *grid.CMat { return ForwardReal2D(grid.NewCMat(m.H, m.W), m) }

// complexOf returns m as a complex matrix with zero imaginary parts.
func complexOf(m *grid.Mat) *grid.CMat {
	c := grid.NewCMat(m.H, m.W)
	for i, v := range m.Data {
		c.Data[i] = complex(v, 0)
	}
	return c
}
