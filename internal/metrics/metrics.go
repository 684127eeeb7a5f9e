// Package metrics implements the paper's three evaluation metrics
// (Section 2.3):
//
//   - L2 loss (Definition 2): squared distance between the wafer image
//     under nominal dose/focus and the target.
//   - PVBand (Definition 3): squared distance between the wafer images
//     at the inner (defocus, -2% dose) and outer (nominal focus, +2%
//     dose) process corners.
//   - Stitch Loss (Definition 1): contours are smoothed with iterated
//     Gaussian low-pass filtering and re-thresholded; at every point
//     where a shape crosses a stitching line a window is extracted and
//     the area of disagreement between the contours before and after
//     smoothing is summed (the orange region of Fig. 3). Straight
//     continuations survive smoothing almost unchanged, while stitch
//     jags get rounded off, so the disagreement area isolates
//     discontinuities; the wiggly contours of real ILT masks produce
//     the non-zero baseline visible even for full-chip ILT in Table 1.
package metrics

import (
	"fmt"

	"mgsilt/internal/filter"
	"mgsilt/internal/grid"
	"mgsilt/internal/litho"
	"mgsilt/internal/tile"
)

// L2 returns the Definition 2 loss: ||Z - Z_t||² with Z the binary
// wafer image under nominal conditions. For binary images this is the
// count of mismatching pixels.
func L2(sim *litho.Simulator, mask, target *grid.Mat) float64 {
	return sim.Wafer(mask, sim.Nominal()).L2Diff(target)
}

// PVBand returns the Definition 3 process-variation band:
// ||Z_in - Z_out||² across the dose/focus corners.
func PVBand(sim *litho.Simulator, mask *grid.Mat) float64 {
	zin := sim.Wafer(mask, sim.Inner())
	zout := sim.Wafer(mask, sim.Outer())
	return zin.L2Diff(zout)
}

// Inspect returns L2 and PVBand of one mask, bit-identical to calling
// the two separately. Nominal and Outer share a focus and differ only
// in the dose applied at the resist, so the nominal-focus aerial image
// is simulated once and printed at both doses: two Hopkins sums over the
// clip where L2 + PVBand run three. Each runs on its kernel set's reduced
// grid (see litho.Aerial) — for a 512² clip at N=64 the fields are
// 256² — and only the two intensities come back at clip size.
func Inspect(sim *litho.Simulator, mask, target *grid.Mat) (l2, pvband float64) {
	nominal := sim.Aerial(mask, sim.Nominal())
	l2 = sim.PrintResist(nominal, sim.Nominal().Dose).L2Diff(target)
	zout := sim.PrintResist(nominal, sim.Outer().Dose)
	grid.PutMat(nominal)
	zin := sim.Wafer(mask, sim.Inner())
	return l2, zin.L2Diff(zout)
}

// StitchConfig parameterises the Stitch Loss measurement.
type StitchConfig struct {
	Sigma  float64 // Gaussian sigma per smoothing iteration
	Iters  int     // number of smoothing iterations
	Window int     // window side length (40 in the paper)
}

// DefaultStitchConfig mirrors the paper's measurement (40×40 windows,
// multiple Gaussian iterations). The smoothing strength is calibrated
// so that genuine stitch jags are rounded off (and therefore counted)
// while legitimate sub-resolution assist features survive the
// smoothing — stronger smoothing erases SRAFs wholesale and swamps the
// boundary signal with a baseline every method pays equally.
func DefaultStitchConfig() StitchConfig {
	return StitchConfig{Sigma: 0.8, Iters: 3, Window: 40}
}

// StitchError is one intersection of a shape with a stitch line and
// its contribution to the total Stitch Loss.
type StitchError struct {
	Y, X int     // intersection coordinate (window centre)
	Loss float64 // Σ |before−after| over the window
}

// StitchLoss measures the Definition 1 metric for a mask against a set
// of stitch lines. The mask is binarised at 0.5 first. It returns the
// total loss and the per-intersection breakdown (used by the Fig. 8
// error maps, which flag intersections whose loss exceeds a threshold).
func StitchLoss(mask *grid.Mat, lines []tile.StitchLine, cfg StitchConfig) (float64, []StitchError) {
	if cfg.Window < 2 || cfg.Iters < 1 || cfg.Sigma <= 0 {
		panic(fmt.Sprintf("metrics: invalid stitch config %+v", cfg))
	}
	if len(lines) == 0 {
		return 0, nil
	}
	b := mask.Binarize(0.5)
	smooth := filter.GaussianIterated(b, cfg.Sigma, cfg.Iters).BinarizeInPlace(0.5)
	diff := b.Clone()
	for i := range diff.Data {
		d := diff.Data[i] - smooth.Data[i]
		if d < 0 {
			d = -d
		}
		diff.Data[i] = d
	}

	var (
		total  float64
		errors []StitchError
	)
	for _, line := range lines {
		for _, mid := range crossings(b, line) {
			var cy, cx int
			if line.Vertical {
				cy, cx = mid, line.Pos
			} else {
				cy, cx = line.Pos, mid
			}
			loss := windowSum(diff, cy, cx, cfg.Window)
			total += loss
			errors = append(errors, StitchError{Y: cy, X: cx, Loss: loss})
		}
	}
	return total, errors
}

// crossings returns the midpoints of the contiguous runs where shapes
// touch the stitch line. A shape "intersects" the line when it has a
// pixel on either side of the core boundary (columns pos-1 and pos for
// a vertical line), so shapes that retreat exactly at the boundary are
// still audited.
func crossings(b *grid.Mat, line tile.StitchLine) []int {
	present := func(t int) bool {
		if line.Vertical {
			if line.Pos > 0 && b.At(t, line.Pos-1) > 0.5 {
				return true
			}
			return line.Pos < b.W && b.At(t, line.Pos) > 0.5
		}
		if line.Pos > 0 && b.At(line.Pos-1, t) > 0.5 {
			return true
		}
		return line.Pos < b.H && b.At(line.Pos, t) > 0.5
	}
	hi := line.Hi
	if line.Vertical && hi > b.H {
		hi = b.H
	}
	if !line.Vertical && hi > b.W {
		hi = b.W
	}
	var mids []int
	runStart := -1
	for t := line.Lo; t <= hi; t++ {
		on := t < hi && present(t)
		if on && runStart < 0 {
			runStart = t
		}
		if !on && runStart >= 0 {
			mids = append(mids, (runStart+t-1)/2)
			runStart = -1
		}
	}
	return mids
}

// windowSum sums diff over the w×w window centred at (cy, cx), clipped
// to the image.
func windowSum(diff *grid.Mat, cy, cx, w int) float64 {
	y0, x0 := cy-w/2, cx-w/2
	y1, x1 := y0+w, x0+w
	if y0 < 0 {
		y0 = 0
	}
	if x0 < 0 {
		x0 = 0
	}
	if y1 > diff.H {
		y1 = diff.H
	}
	if x1 > diff.W {
		x1 = diff.W
	}
	sum := 0.0
	for y := y0; y < y1; y++ {
		row := diff.Row(y)
		for x := x0; x < x1; x++ {
			sum += row[x]
		}
	}
	return sum
}

// StitchThreshold is the per-crossing stitch error (px) above which
// Fig. 8 draws a red box.
const StitchThreshold = 5.0

// CountAbove returns how many stitch errors exceed the threshold — the
// quantity highlighted by the red boxes of Fig. 8.
func CountAbove(errors []StitchError, threshold float64) int {
	n := 0
	for _, e := range errors {
		if e.Loss > threshold {
			n++
		}
	}
	return n
}

// MaxLoss returns the largest single stitch error (0 when empty).
func MaxLoss(errors []StitchError) float64 {
	m := 0.0
	for _, e := range errors {
		if e.Loss > m {
			m = e.Loss
		}
	}
	return m
}
