package core

import (
	"mgsilt/internal/grid"
	"mgsilt/internal/metrics"
	"mgsilt/internal/opt"
	"mgsilt/internal/tile"
)

// PenaltyResult quantifies the Section 2.3 motivation experiment: how
// much worse the centre tile's printed result gets when its mask is
// cropped from the divide-and-conquer assembly instead of used
// directly — the influence adjacent tiles exert on margin pixels.
type PenaltyResult struct {
	SingleTileL2 float64 // L2 of the tile optimised and inspected alone
	AssembledL2  float64 // L2 of the same region cropped from the assembly
}

// Increase returns AssembledL2 - SingleTileL2, the Table-less "up to a
// 8247 and 4600 increase in L2 error" number of Section 2.3.
func (p PenaltyResult) Increase() float64 { return p.AssembledL2 - p.SingleTileL2 }

// TileAssemblyPenalty runs the Section 2.3 experiment on the centre
// tile of the partition: optimise it in isolation, then compare
// against the same window cropped out of the full divide-and-conquer
// assembly.
func TileAssemblyPenalty(cfg Config, target *grid.Mat) (*PenaltyResult, error) {
	c := &cfg
	if err := c.checkTarget(target); err != nil {
		return nil, err
	}
	p, err := tile.Part(cfg.ClipSize, cfg.ClipSize, cfg.TileSize, cfg.Margin)
	if err != nil {
		return nil, err
	}
	centre := p.Tiles[len(p.Tiles)/2]
	tgt := target.Crop(centre.Y0, centre.X0, p.Tile, p.Tile)

	params := opt.Params{Iters: cfg.BaselineIters, LR: cfg.LR, Stretch: 1, PVWeight: cfg.PVWeight}
	single, err := c.solver().Solve(tgt, tgt, params)
	if err != nil {
		return nil, err
	}

	dc, err := DivideAndConquer(cfg, target)
	if err != nil {
		return nil, err
	}
	cropped := dc.Mask.Crop(centre.Y0, centre.X0, p.Tile, p.Tile)

	return &PenaltyResult{
		SingleTileL2: metrics.L2(cfg.Sim, single.Binarize(0.5), tgt),
		AssembledL2:  metrics.L2(cfg.Sim, cropped.Binarize(0.5), tgt),
	}, nil
}
