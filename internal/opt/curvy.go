package opt

import (
	"mgsilt/internal/filter"
	"mgsilt/internal/grid"
	"mgsilt/internal/litho"
	"mgsilt/internal/mrc"
)

// Curvy is the curvature-regularized pixel solver in the spirit of
// NVIDIA's curvilinear-mask ILT (arXiv 2411.07311): the Pixel descent
// loop with an extra curvature-flow term −w·κ·|∇M| on the mask
// contour (the same motion LevelSet applies to its level-set function,
// here applied to the gray mask directly), followed by a post-solve
// MRC-aware legalization pass that morphologically repairs the
// binarised mask against internal/mrc rules. The curvature term keeps
// contours smooth and "curvilinear" during the solve; legalization
// guarantees the delivered mask is checkable geometry — close gaps
// below MinSpace, open features below MinWidth, drop islands below
// MinArea — iterated until mrc.Check reports clean or the pass budget
// runs out.
type Curvy struct {
	// Pixel is the underlying descent loop; its Slope/FinalSlope/
	// SmoothWeight tuning applies unchanged.
	Pixel *Pixel
	// CurvWeight is the weight w of the curvature-flow gradient term
	// −w·κ·|∇M|. LevelSet's 0.12 velocity weight is the reference
	// scale.
	CurvWeight float64
	// Rules are the manufacturability rules to legalize against.
	Rules mrc.Rules
	// MaxLegalize bounds the check→repair passes of the legalization
	// loop; morphological repairs can interact (closing a gap may
	// create a neck the next opening removes), so repair runs to a
	// fixed point with this budget as the backstop.
	MaxLegalize int
}

// NewCurvy returns a Curvy solver tuned for the experiment suite,
// legalizing against mrc.DefaultRules.
func NewCurvy(sim *litho.Simulator) *Curvy {
	return &Curvy{Pixel: NewPixel(sim), CurvWeight: 0.12, Rules: mrc.DefaultRules(), MaxLegalize: 8}
}

// Name implements Solver.
func (s *Curvy) Name() string { return "curvy-ilt" }

// Solve implements Solver.
func (s *Curvy) Solve(target, init *grid.Mat, p Params) (*grid.Mat, error) {
	extra := func(gm, mask *grid.Mat) {
		if s.CurvWeight == 0 {
			return
		}
		gradMag := filter.GradientMagnitude(mask)
		curv := filter.Curvature(mask)
		for i := range gm.Data {
			gm.Data[i] -= s.CurvWeight * curv.Data[i] * gradMag.Data[i]
		}
	}
	mask, err := s.Pixel.solve(target, init, p, extra)
	if err != nil {
		return nil, err
	}
	out := s.Legalize(mask)
	restoreFrozen(out, init, p.Freeze)
	return out, nil
}

// Legalize binarises the mask and repairs it against s.Rules:
// close sub-MinSpace gaps, open sub-MinWidth features and necks, and
// drop sub-MinArea islands, re-checking after each pass. Closing runs
// before opening because opening and the area filter only remove
// material — they can widen gaps but never narrow one — and an opened,
// island-filtered mask is stable under a further opening, so the pass
// order converges instead of oscillating. The returned mask is binary
// {0,1}; when mrc.Check still reports violations after MaxLegalize
// passes (pathological geometry where closing a gap keeps recreating a
// neck), the last repaired mask is returned as-is.
func (s *Curvy) Legalize(mask *grid.Mat) *grid.Mat {
	b := mask.Binarize(0.5)
	widthR := legalizeRadius(s.Rules.MinWidth)
	spaceR := legalizeRadius(s.Rules.MinSpace)
	for pass := 0; pass < s.MaxLegalize; pass++ {
		rep, err := mrc.Check(b, s.Rules)
		if err != nil || rep.Clean() {
			break
		}
		b = filter.Close(b, spaceR)
		b = filter.Open(b, widthR)
		b = dropSmallComponents(b, s.Rules.MinArea)
	}
	return b
}

// legalizeRadius mirrors the structuring-element radius mrc's own
// width/space checks use, so a repair exactly neutralises the check
// that demanded it.
func legalizeRadius(minDim int) int {
	r := (minDim - 1) / 2
	if r < 1 {
		r = 1
	}
	return r
}

// dropSmallComponents zeroes 8-connected components smaller than
// minArea pixels.
func dropSmallComponents(b *grid.Mat, minArea int) *grid.Mat {
	if minArea <= 1 {
		return b
	}
	small := false
	for _, c := range mrc.Components(b) {
		if c.Area < minArea {
			small = true
			break
		}
	}
	if !small {
		return b
	}
	labels, comps := mrc.LabelComponents(b)
	out := grid.NewMat(b.H, b.W)
	for i, v := range b.Data {
		if v >= 0.5 && comps[labels[i]].Area >= minArea {
			out.Data[i] = 1
		}
	}
	return out
}
