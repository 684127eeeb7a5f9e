package core

import (
	"context"

	"mgsilt/internal/device"
	"mgsilt/internal/grid"
	"mgsilt/internal/opt"
	"mgsilt/internal/pipeline"
	"mgsilt/internal/tile"
)

// StitchAndHeal reproduces the 'stitch-and-heal' methodology of [6]
// that Fig. 7 critiques: after a divide-and-conquer pass, windows of
// tile size are centred on every stitch line and re-optimised, and the
// band of half-width healBand around the line is pasted back. The
// paste-band edges are new partition boundaries; the returned Result
// carries them in AuxLines so the Fig. 7 bench can show stitch errors
// reappearing there. FineIters is used as the healing budget per
// window (healing is a partial re-optimisation, not a full solve).
//
// The flow is one pipeline: stage 1 is the inner divide-and-conquer
// solve+assembly, then one stage per healed stitch line — so a killed
// heal run resumes after its last healed line instead of repaying the
// whole baseline budget. The healing windows' new boundaries are pure
// geometry (independent of the solved masks), so AuxLines are complete
// even on a resumed run.
func StitchAndHeal(cfg Config, target *grid.Mat) (*Result, error) {
	c := &cfg
	if err := c.checkTarget(target); err != nil {
		return nil, err
	}
	cl := c.cluster()
	p, err := tile.Part(cfg.ClipSize, cfg.ClipSize, cfg.TileSize, cfg.Margin)
	if err != nil {
		return nil, err
	}
	lines := p.StitchLines()

	stages := make([]pipeline.Stage, 0, 1+len(lines))
	stages = append(stages, pipeline.Stage{
		Name: "solve", Iter: 1, Total: 1,
		Run: func(_ context.Context, _ *grid.Mat) (*grid.Mat, error) {
			return c.solveRAS(cl, target, target, 1, cfg.BaselineIters)
		},
	})
	for i, line := range lines {
		stages = append(stages, pipeline.Stage{
			Name: "heal", Iter: i + 1, Total: len(lines),
			Run: func(_ context.Context, m *grid.Mat) (*grid.Mat, error) {
				return c.healLine(cl, m, target, line)
			},
		})
	}

	res, err := c.run("stitch-and-heal", cl, stages, target, target, lines)
	if err != nil {
		return nil, err
	}
	for _, line := range lines {
		res.AuxLines = append(res.AuxLines, c.healEdges(line)...)
	}
	return res, nil
}

// healLine re-optimises the windows along one stitch line and pastes
// back the central band of each, in place: one sweep whose put is the
// band paste. The windows are disjoint and every crop is taken before
// the first paste, so the order of pastes cannot matter.
func (c *Config) healLine(cl *device.Cluster, m, target *grid.Mat, line tile.StitchLine) (*grid.Mat, error) {
	t := c.TileSize
	band := c.healBand()
	params := opt.Params{Iters: c.FineIters, LR: c.LR, Stretch: 1, PVWeight: c.PVWeight}
	err := c.sweep(cl, m, target, t, 1, c.healWindows(line), params, nil, func(w tile.Spec, u *grid.Mat) {
		if line.Vertical {
			m.Paste(u.Crop(0, line.Pos-band-w.X0, t, 2*band), w.Y0, line.Pos-band)
		} else {
			m.Paste(u.Crop(line.Pos-band-w.Y0, 0, 2*band, t), line.Pos-band, w.X0)
		}
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// healBand is the half-width of the band a healed window pastes back:
// a quarter tile, the paper's margin l. Its edges become the new
// partition boundaries of Fig. 7.
func (c *Config) healBand() int { return c.TileSize / 4 }

// healWindows are the tile-size windows that heal one stitch line:
// centred on the line (clamped into the clip) and stacked along it
// without overlap, indexed in that order.
func (c *Config) healWindows(line tile.StitchLine) []tile.Spec {
	t := c.TileSize
	perp := min(max(line.Pos-t/2, 0), c.ClipSize-t)
	var wins []tile.Spec
	for along := 0; along+t <= c.ClipSize; along += t {
		w := tile.Spec{Index: len(wins), Y0: perp, X0: along}
		if line.Vertical {
			w.Y0, w.X0 = along, perp
		}
		wins = append(wins, w)
	}
	return wins
}

// healEdges returns the new partition boundaries created by healing
// one line: the band edges of Fig. 7 plus the joints between stacked
// windows inside the band. The edges are pure geometry — they depend
// only on the line, the band width and the windows, never on the
// solved masks — which is what lets a resumed run reconstruct the full
// AuxLines list without re-healing skipped lines.
func (c *Config) healEdges(line tile.StitchLine) []tile.StitchLine {
	band := c.healBand()
	edges := []tile.StitchLine{
		{Vertical: line.Vertical, Pos: line.Pos - band, Lo: 0, Hi: c.ClipSize},
		{Vertical: line.Vertical, Pos: line.Pos + band, Lo: 0, Hi: c.ClipSize},
	}
	for _, w := range c.healWindows(line)[1:] {
		joint := tile.StitchLine{Vertical: true, Pos: w.X0, Lo: line.Pos - band, Hi: line.Pos + band}
		if line.Vertical {
			joint.Vertical, joint.Pos = false, w.Y0
		}
		edges = append(edges, joint)
	}
	return edges
}
