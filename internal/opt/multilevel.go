package opt

import (
	"fmt"

	"mgsilt/internal/filter"
	"mgsilt/internal/grid"
	"mgsilt/internal/litho"
)

// MultiLevel reproduces the behaviour of "Multi-level-ILT" [4] (the
// authors' own DAC'23 solver): pixel-based ILT driven by a coarse-to-
// fine lithography-simulation schedule. Early iterations run against a
// factor-2 downsampled simulation (Eq. 9) — cheap and globally
// informed — and the remaining iterations refine at full resolution.
// The free pixel parameterisation nucleates many SRAFs, giving the
// best single-tile mask quality of the baselines but also the largest
// boundary mismatches when tiles are optimised independently (the
// Table 1 stitch-loss signature this paper targets).
type MultiLevel struct {
	Sim *litho.Simulator
	// Levels is the number of resolution levels (≥1). Level k runs at
	// downsample factor 2^(Levels-1-k); the final level is full
	// resolution. The paper's solver uses 2 levels.
	Levels int
	// CoarseFrac is the fraction of iterations spent on the coarser
	// levels combined.
	CoarseFrac float64
	// CleanRadius is the morphological open/close radius applied to
	// the binarised inter-level hand-off; the bilinear lift of a
	// coarse solution leaves gray edges and sub-resolution speckles
	// that would waste the finer level's budget. 0 disables cleaning
	// and hands the gray lift over directly.
	CleanRadius int
	// Pixel is the underlying pixel solver driven at every level;
	// nil selects NewPixel defaults.
	Pixel *Pixel
}

// NewMultiLevel returns a MultiLevel solver with the DAC'23-style
// two-level schedule.
func NewMultiLevel(sim *litho.Simulator) *MultiLevel {
	return &MultiLevel{Sim: sim, Levels: 2, CoarseFrac: 0.5, CleanRadius: 2, Pixel: NewPixel(sim)}
}

// Name implements Solver.
func (s *MultiLevel) Name() string { return "multi-level-ilt" }

// Solve implements Solver.
func (s *MultiLevel) Solve(target, init *grid.Mat, p Params) (*grid.Mat, error) {
	if err := p.validateFor(init); err != nil {
		return nil, err
	}
	if s.Levels < 1 {
		return nil, fmt.Errorf("opt: MultiLevel.Levels must be >= 1, got %d", s.Levels)
	}
	if s.CoarseFrac < 0 || s.CoarseFrac >= 1 {
		return nil, fmt.Errorf("opt: MultiLevel.CoarseFrac %v out of [0,1)", s.CoarseFrac)
	}
	// Use a local handle so a zero-value MultiLevel stays safe for
	// concurrent Solve calls (tiles are optimised in parallel).
	pixel := s.Pixel
	if pixel == nil {
		pixel = NewPixel(s.Sim)
	}

	mask := init.Clone()
	remaining := p.Iters
	coarseBudget := int(float64(p.Iters) * s.CoarseFrac)
	levels := s.Levels
	// Clamp the pyramid so the coarsest level is still a usable grid.
	for levels > 1 && (init.H>>(levels-1) < 32 || (1<<(levels-1))*p.Stretch > 4) {
		levels--
	}

	for lvl := 0; lvl < levels-1; lvl++ {
		if err := p.Interrupted(); err != nil {
			return nil, err
		}
		factor := 1 << (levels - 1 - lvl) // 2^(levels-1), ..., 2
		iters := coarseBudget / (levels - 1)
		if iters == 0 {
			continue
		}
		remaining -= iters
		cp := p
		cp.Iters = iters
		cp.Stretch = p.Stretch * factor
		if p.Freeze != nil {
			cp.Freeze = p.Freeze.Downsample(factor).BinarizeInPlace(0.49)
		}
		coarseTarget := target.Downsample(factor)
		coarseInit := mask.Downsample(factor)
		coarseMask, err := pixel.Solve(coarseTarget, coarseInit, cp)
		if err != nil {
			return nil, err
		}
		mask = coarseMask.UpsampleBilinear(factor)
		if r := s.CleanRadius; r > 0 {
			mask.BinarizeInPlace(0.5)
			mask = filter.Close(filter.Open(mask, r), r)
		}
	}

	fp := p
	fp.Iters = remaining
	out, err := pixel.Solve(target, mask, fp)
	if err != nil {
		return nil, err
	}
	// The coarse levels may have drifted frozen pixels before the
	// full-resolution level re-pinned them; restore the exact
	// Dirichlet data from the original initial mask.
	if p.Freeze != nil {
		for i, f := range p.Freeze.Data {
			if f >= 0.5 {
				out.Data[i] = init.Data[i]
			}
		}
	}
	return out, nil
}
