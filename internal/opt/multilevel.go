package opt

import (
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
}

// The MultiLevel schedule. Like the Pixel numerics it drives, it is
// code, not settings: a change to one bumps cache.codeVersion.
const (
	// multiLevelCoarseFrac is the fraction of iterations spent on the
	// coarser levels combined.
	multiLevelCoarseFrac = 0.5
	// multiLevelClean is the morphological open/close radius applied to
	// the binarised inter-level hand-off; the bilinear lift of a coarse
	// solution leaves gray edges and sub-resolution speckles that would
	// waste the finer level's budget.
	multiLevelClean = 2
)

// NewMultiLevel returns a MultiLevel solver on sim.
func NewMultiLevel(sim *litho.Simulator) *MultiLevel {
	return &MultiLevel{Sim: sim}
}

// depth is the height of the resolution pyramid on a size² input to a
// simulator of native grid n: 2 + log2(size/n), so the coarsest level
// reaches below n. That is the DAC'23 two-level schedule on a tile of
// n, and the full-chip reference of Table 1 on a whole clip.
func depth(size, n int) int {
	d := 2
	for c := size; c > n; c /= 2 {
		d++
	}
	return d
}

// levels is depth clamped so the coarsest level is still a usable grid:
// at least 32 px, at a litho stretch of at most 4. Level k runs at
// downsample factor 2^(levels-1-k); the final level is full resolution.
func levels(size, n, stretch int) int {
	lv := depth(size, n)
	for lv > 1 && (size>>(lv-1) < 32 || (1<<(lv-1))*stretch > 4) {
		lv--
	}
	return lv
}

// Name implements Solver.
func (s *MultiLevel) Name() string { return "multi-level-ilt" }

// Solve implements Solver.
func (s *MultiLevel) Solve(target, init *grid.Mat, p Params) (*grid.Mat, error) {
	if err := p.validateFor(init); err != nil {
		return nil, err
	}
	pixel := NewPixel(s.Sim)
	mask := init.Clone()
	remaining := p.Iters
	coarseBudget := int(float64(p.Iters) * multiLevelCoarseFrac)
	levels := levels(init.H, s.Sim.N(), p.Stretch)

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
		mask = filter.Clean(coarseMask.UpsampleBilinear(factor), 0.5, multiLevelClean)
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
	restoreFrozen(out, init, p.Freeze)
	return out, nil
}
