// Package filter provides the spatial-domain image filters used by the
// stitch-loss metric (Definition 1: iterated Gaussian low-pass
// smoothing) and by layout post-processing (morphological cleaning for
// manufacturability checks).
package filter

import (
	"fmt"
	"math"

	"mgsilt/internal/grid"
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
func convolveSeparable(m *grid.Mat, k []float64) *grid.Mat {
	radius := len(k) / 2
	tmp := grid.NewMat(m.H, m.W)
	for y := 0; y < m.H; y++ {
		src := m.Row(y)
		dst := tmp.Row(y)
		for x := 0; x < m.W; x++ {
			sum := 0.0
			for i := -radius; i <= radius; i++ {
				sum += k[i+radius] * src[reflect(x+i, m.W)]
			}
			dst[x] = sum
		}
	}
	out := grid.NewMat(m.H, m.W)
	for x := 0; x < m.W; x++ {
		for y := 0; y < m.H; y++ {
			sum := 0.0
			for i := -radius; i <= radius; i++ {
				sum += k[i+radius] * tmp.At(reflect(y+i, m.H), x)
			}
			out.Set(y, x, sum)
		}
	}
	return out
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

// Erode performs binary morphological erosion of a {0,1} matrix with a
// (2r+1)×(2r+1) square structuring element.
func Erode(m *grid.Mat, r int) *grid.Mat { return morph(m, r, true) }

// Dilate performs binary morphological dilation of a {0,1} matrix with
// a (2r+1)×(2r+1) square structuring element.
func Dilate(m *grid.Mat, r int) *grid.Mat { return morph(m, r, false) }

func morph(m *grid.Mat, r int, erode bool) *grid.Mat {
	if r < 0 {
		panic("filter: morphology radius must be non-negative")
	}
	out := grid.NewMat(m.H, m.W)
	for y := 0; y < m.H; y++ {
		for x := 0; x < m.W; x++ {
			val := 1.0
			if !erode {
				val = 0.0
			}
			for dy := -r; dy <= r && (erode == (val == 1)); dy++ {
				yy := y + dy
				if yy < 0 || yy >= m.H {
					if erode {
						val = 0 // outside is background
					}
					continue
				}
				for dx := -r; dx <= r; dx++ {
					xx := x + dx
					if xx < 0 || xx >= m.W {
						if erode {
							val = 0
						}
						continue
					}
					v := m.At(yy, xx)
					if erode && v < 0.5 {
						val = 0
					} else if !erode && v >= 0.5 {
						val = 1
					}
				}
			}
			out.Set(y, x, val)
		}
	}
	return out
}

// Open is erosion followed by dilation: removes features thinner than
// the structuring element (used for MRC-style minimum-width cleanup).
func Open(m *grid.Mat, r int) *grid.Mat { return Dilate(Erode(m, r), r) }

// Close is dilation followed by erosion: fills gaps narrower than the
// structuring element.
func Close(m *grid.Mat, r int) *grid.Mat { return Erode(Dilate(m, r), r) }

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
