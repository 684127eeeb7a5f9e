package opt

import (
	"math"

	"mgsilt/internal/filter"
	"mgsilt/internal/grid"
	"mgsilt/internal/litho"
)

// LevelSet reproduces the behaviour of the GPU level-set ILT of [3]
// ("GLS-ILT"): the mask is the interior of the zero level set of a
// signed-distance field φ, relaxed through a smoothed Heaviside
// M = ½(1 + tanh(φ/ε)). The field evolves by the litho-gradient
// velocity with a curvature regulariser,
//
//	φ ← φ − lr·(v − μ·κ)·|∇φ|,   v = ∂L/∂M · δ_ε(φ)-free form,
//
// and is periodically redistanced. Because evolution only moves the
// existing contour, the solver cannot nucleate SRAFs away from the
// shapes — the signature that makes GLS-ILT masks cleaner (lower
// stitch loss) but optically weaker (higher L2) than pixel ILT in
// Table 1.
type LevelSet struct {
	Sim *litho.Simulator
}

// The LevelSet numerics. They are code, not settings: a change to one
// moves solve outputs, so it bumps cache.codeVersion.
const (
	// levelSetEpsilon is the Heaviside relaxation half-width in pixels.
	levelSetEpsilon = 1.5
	// levelSetCurvature is the weight μ of the curvature smoothing term.
	levelSetCurvature = 0.12
	// levelSetReinit redistances φ every so many iterations.
	levelSetReinit = 10
)

// NewLevelSet returns a LevelSet solver on sim.
func NewLevelSet(sim *litho.Simulator) *LevelSet {
	return &LevelSet{Sim: sim}
}

// Name implements Solver.
func (s *LevelSet) Name() string { return "gls-ilt" }

// Solve implements Solver.
func (s *LevelSet) Solve(target, init *grid.Mat, p Params) (*grid.Mat, error) {
	if err := p.validateFor(init); err != nil {
		return nil, err
	}
	phi := SignedDistance(init.Binarize(0.5))
	mask := grid.NewMat(init.H, init.W)
	vel := make([]float64, len(phi.Data))
	for it := 0; it < p.Iters; it++ {
		if err := p.Interrupted(); err != nil {
			return nil, err
		}
		heaviside(phi, mask)
		_, gm := sharedLossGrad(s.Sim, mask, target, p)
		gradMag := filter.GradientMagnitude(phi)
		curv := filter.Curvature(phi)
		for i := range phi.Data {
			v := gm.Data[i] - levelSetCurvature*curv.Data[i]
			vel[i] = v * gradMag.Data[i]
		}
		grid.PutMat(gm) // LossGrad hands over a pooled matrix
		maskFrozen(vel, p.Freeze, 0, len(vel))
		for i := range phi.Data {
			phi.Data[i] -= p.LR * vel[i]
		}
		if (it+1)%levelSetReinit == 0 {
			phi = SignedDistance(binaryOf(phi))
		}
	}
	heaviside(phi, mask)
	restoreFrozen(mask, init, p.Freeze)
	return mask, nil
}

func heaviside(phi, dst *grid.Mat) {
	for i, v := range phi.Data {
		dst.Data[i] = 0.5 * (1 + math.Tanh(v/levelSetEpsilon))
	}
}

func binaryOf(phi *grid.Mat) *grid.Mat {
	out := grid.NewMat(phi.H, phi.W)
	for i, v := range phi.Data {
		if v > 0 {
			out.Data[i] = 1
		}
	}
	return out
}

// SignedDistance computes an approximate signed Euclidean distance
// field of a {0,1} image with a two-pass 3-4 chamfer transform:
// positive inside shapes, negative outside, zero-crossing on the shape
// boundary. Distances are in pixels (chamfer weights 3/4 scaled by
// 1/3).
func SignedDistance(binary *grid.Mat) *grid.Mat {
	inside := chamfer(binary, true)
	outside := chamfer(binary, false)
	out := grid.NewMat(binary.H, binary.W)
	for i := range out.Data {
		if binary.Data[i] > 0.5 {
			out.Data[i] = inside.Data[i] - 0.5
		} else {
			out.Data[i] = -(outside.Data[i] - 0.5)
		}
	}
	return out
}

// chamfer returns, for each pixel of the selected region (foreground
// when fg, else background), its 3-4 chamfer distance to the region's
// complement, scaled to pixel units.
func chamfer(binary *grid.Mat, fg bool) *grid.Mat {
	const inf = 1e12
	h, w := binary.H, binary.W
	d := grid.NewMat(h, w)
	in := func(i int) bool { return (binary.Data[i] > 0.5) == fg }
	for i := range d.Data {
		if in(i) {
			d.Data[i] = inf
		}
	}
	at := func(y, x int) float64 {
		if y < 0 || y >= h || x < 0 || x >= w {
			return inf // outside the image exerts no influence
		}
		return d.Data[y*w+x]
	}
	// Forward pass.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			if !in(i) {
				continue
			}
			v := d.Data[i]
			v = math.Min(v, at(y, x-1)+3)
			v = math.Min(v, at(y-1, x)+3)
			v = math.Min(v, at(y-1, x-1)+4)
			v = math.Min(v, at(y-1, x+1)+4)
			d.Data[i] = v
		}
	}
	// Backward pass.
	for y := h - 1; y >= 0; y-- {
		for x := w - 1; x >= 0; x-- {
			i := y*w + x
			if !in(i) {
				continue
			}
			v := d.Data[i]
			v = math.Min(v, at(y, x+1)+3)
			v = math.Min(v, at(y+1, x)+3)
			v = math.Min(v, at(y+1, x+1)+4)
			v = math.Min(v, at(y+1, x-1)+4)
			d.Data[i] = v
		}
	}
	// Cap so that regions with no complement at all (e.g. an all-ones
	// image) stay finite for the downstream tanh/curvature arithmetic.
	cap := 3 * float64(h+w)
	for i := range d.Data {
		if d.Data[i] > cap {
			d.Data[i] = cap
		}
	}
	return d.Scale(1.0 / 3.0)
}
