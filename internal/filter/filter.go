// Package filter provides the spatial-domain image filters used by the
// stitch-loss metric (Definition 1: iterated Gaussian low-pass
// smoothing) and by layout post-processing (morphological cleaning for
// manufacturability checks).
package filter

import (
	"fmt"
	"math"

	"mgsilt/internal/grid"
	"mgsilt/internal/parallel"
)

// GaussianKernel1D returns a normalised 1-D Gaussian kernel with the
// given sigma, truncated at radius ceil(3·sigma).
func GaussianKernel1D(sigma float64) []float64 {
	if sigma <= 0 {
		panic(fmt.Sprintf("filter: sigma must be positive, got %v", sigma))
	}
	radius := int(math.Ceil(3 * sigma))
	k := make([]float64, 2*radius+1)
	sum := 0.0
	for i := -radius; i <= radius; i++ {
		v := math.Exp(-float64(i*i) / (2 * sigma * sigma))
		k[i+radius] = v
		sum += v
	}
	for i := range k {
		k[i] /= sum
	}
	return k
}

// reflect maps an out-of-range index into [0, n) by mirror reflection,
// the boundary handling that keeps smoothing from darkening shapes
// touching the clip edge.
func reflect(i, n int) int {
	if n == 1 {
		return 0
	}
	period := 2 * (n - 1)
	i = ((i % period) + period) % period
	if i >= n {
		i = period - i
	}
	return i
}

// convolveSeparable applies the 1-D kernel k along rows then columns
// with mirror boundaries, returning a fresh matrix.
//
// Every output pixel is the sum 0 + k[0]·t₀ + k[1]·t₁ + … in tap order,
// whichever loop produces it: pixels at least a radius away from the
// edge read their taps directly instead of through reflect, and the
// column pass adds one kernel-weighted source row at a time into each
// output row instead of walking down columns. Both passes fan out by
// rows: an output row of either reads only its source rows, so the
// split changes no sum.
func convolveSeparable(m *grid.Mat, k []float64) *grid.Mat {
	radius := len(k) / 2
	limit := parallel.SweepLimit(m.H * m.W)
	// Columns lo…hi−1 have their whole window inside the row.
	lo := min(radius, m.W)
	hi := max(lo, m.W-radius)
	tmp := grid.NewMat(m.H, m.W)
	parallel.DoChunks(m.H, limit, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			src := m.Row(y)
			dst := tmp.Row(y)
			for x := 0; x < lo; x++ {
				dst[x] = mirrorTap(src, k, x)
			}
			for x := lo; x < hi; x++ {
				sum := 0.0
				for i, t := range src[x-radius : x+radius+1] {
					sum += k[i] * t
				}
				dst[x] = sum
			}
			for x := hi; x < m.W; x++ {
				dst[x] = mirrorTap(src, k, x)
			}
		}
	})
	out := grid.NewMat(m.H, m.W) // zeroed: the running sums start at +0
	parallel.DoChunks(m.H, limit, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			dst := out.Row(y)
			for i, kv := range k {
				for x, t := range tmp.Row(reflect(y+i-radius, m.H)) {
					dst[x] += kv * t
				}
			}
		}
	})
	return out
}

// mirrorTap is the output sample at x of k applied along src with mirror
// boundaries.
func mirrorTap(src, k []float64, x int) float64 {
	radius := len(k) / 2
	sum := 0.0
	for i, kv := range k {
		sum += kv * src[reflect(x+i-radius, len(src))]
	}
	return sum
}

// Gaussian returns m smoothed by a separable Gaussian with the given
// sigma (mirror boundary conditions).
func Gaussian(m *grid.Mat, sigma float64) *grid.Mat {
	return convolveSeparable(m, GaussianKernel1D(sigma))
}

// GaussianIterated applies Gaussian smoothing `iters` times, the
// contour-smoothing operator of the Stitch Loss definition.
func GaussianIterated(m *grid.Mat, sigma float64, iters int) *grid.Mat {
	if iters < 1 {
		panic("filter: iteration count must be >= 1")
	}
	out := Gaussian(m, sigma)
	for i := 1; i < iters; i++ {
		out = Gaussian(out, sigma)
	}
	return out
}

// GradientMagnitude returns the central-difference gradient magnitude
// of m, used for level-set evolution (|∇φ|).
func GradientMagnitude(m *grid.Mat) *grid.Mat {
	out := grid.NewMat(m.H, m.W)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			xm := m.At(y, reflect(x-1, m.W))
			xp := m.At(y, reflect(x+1, m.W))
			ym := m.At(reflect(y-1, m.H), x)
			yp := m.At(reflect(y+1, m.H), x)
			gx := (xp - xm) / 2
			gy := (yp - ym) / 2
			out.Set(y, x, math.Sqrt(gx*gx+gy*gy))
		}
	}
	return out
}

// Curvature returns the mean-curvature term div(∇φ/|∇φ|) of m computed
// with central differences, the smoothness regulariser of the
// level-set ILT solver.
func Curvature(m *grid.Mat) *grid.Mat {
	const eps = 1e-8
	out := grid.NewMat(m.H, m.W)
	at := func(y, x int) float64 { return m.At(reflect(y, m.H), reflect(x, m.W)) }
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			fx := (at(y, x+1) - at(y, x-1)) / 2
			fy := (at(y+1, x) - at(y-1, x)) / 2
			fxx := at(y, x+1) - 2*at(y, x) + at(y, x-1)
			fyy := at(y+1, x) - 2*at(y, x) + at(y-1, x)
			fxy := (at(y+1, x+1) - at(y+1, x-1) - at(y-1, x+1) + at(y-1, x-1)) / 4
			den := math.Pow(fx*fx+fy*fy+eps, 1.5)
			out.Set(y, x, (fxx*fy*fy-2*fx*fy*fxy+fyy*fx*fx)/den)
		}
	}
	return out
}
