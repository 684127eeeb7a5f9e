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

// Erode performs binary morphological erosion of a {0,1} matrix with a
// (2r+1)×(2r+1) square structuring element.
func Erode(m *grid.Mat, r int) *grid.Mat { return morph(m, r, true) }

// Dilate performs binary morphological dilation of a {0,1} matrix with
// a (2r+1)×(2r+1) square structuring element.
func Dilate(m *grid.Mat, r int) *grid.Mat { return morph(m, r, false) }

// morph applies the square structuring element as two window tests, along
// rows and then down the columns of the {0,1} row result: a square is
// the product of its two sides, so a pixel survives erosion exactly when
// its whole row window does in every row of its column window, and
// likewise for dilation. Outside the matrix is background: it clears an
// eroded pixel and never sets a dilated one. Both passes fan out by
// rows; a band of the column pass counts its own first window, so a
// band's counts are the ones the serial slide would reach.
func morph(m *grid.Mat, r int, erode bool) *grid.Mat {
	if r < 0 {
		panic("filter: morphology radius must be non-negative")
	}
	// A pixel of the window decides the outcome when it is background
	// (erosion) or foreground (dilation); value maps "some pixel of the
	// window decides" onto the output.
	decides := func(v float64) bool { return erode && v < 0.5 || !erode && v >= 0.5 }
	value := func(decided bool) float64 {
		if decided == erode {
			return 0
		}
		return 1
	}
	limit := parallel.SweepLimit(m.H * m.W)
	tmp := grid.NewMat(m.H, m.W)
	parallel.DoChunks(m.H, limit, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			src, dst := m.Row(y), tmp.Row(y)
			n := 0 // deciding pixels among columns x−r…x+r
			for x := 0; x < min(r, m.W); x++ {
				if decides(src[x]) {
					n++
				}
			}
			for x := range dst {
				if x+r < m.W && decides(src[x+r]) {
					n++
				}
				dst[x] = value(n > 0 || erode && (x < r || x+r >= m.W))
				if x >= r && decides(src[x-r]) {
					n--
				}
			}
		}
	})
	out := grid.NewMat(m.H, m.W)
	parallel.DoChunks(m.H, limit, func(y0, y1 int) {
		count := make([]int, m.W) // per column: deciding pixels among rows y−r…y+r of tmp
		add := func(y, d int) {
			for x, v := range tmp.Row(y) {
				if decides(v) {
					count[x] += d
				}
			}
		}
		// Seed the window of row y0: rows y0−r…y0+r−1 inside the matrix.
		for y := max(0, y0-r); y < min(y0+r, m.H); y++ {
			add(y, 1)
		}
		for y := y0; y < y1; y++ {
			if y+r < m.H {
				add(y+r, 1)
			}
			outside := erode && (y < r || y+r >= m.H)
			for x, n := range count {
				out.Data[y*m.W+x] = value(n > 0 || outside)
			}
			if y >= r {
				add(y-r, -1)
			}
		}
	})
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
