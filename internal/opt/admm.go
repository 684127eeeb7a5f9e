package opt

import (
	"mgsilt/internal/grid"
	"mgsilt/internal/litho"
)

// ADMM is an operator-splitting ILT solver on the pixel
// parameterization, after the consensus formulation of Chen & Liu
// (arXiv 2209.10814): split the objective into the smooth litho loss
// f(x) and a separable mask prior g(z) = λ·Σ z(1−z) + 1_[0,1](z)
// coupled by the constraint x = z, then alternate
//
//	x ← x − lr·(∇f(x) + ρ·(x − z + u))   (linearized x-update, Adam)
//	z ← prox_{g/ρ}(x + u)                 (exact, closed form)
//	u ← u + x − z                         (scaled dual ascent)
//
// The x-update costs exactly one simulator LossGrad per outer
// iteration, so Params.Iters means the same work budget as for Pixel
// (iteration-count parity). The z-update is exact: g is quadratic on
// [0,1] with negative curvature −2λ, so for ρ > 2λ the proximal
// objective ½ρ(z−v)² + λz(1−z) is strictly convex with unconstrained
// minimiser (ρv−λ)/(ρ−2λ), and the box projection of that point is the
// global solution — a threshold step that stretches z away from 0.5
// toward binary, which is what makes the converged consensus mask
// nearly binary without sigmoid annealing.
type ADMM struct {
	Sim *litho.Simulator
	// Rho is the augmented-Lagrangian penalty ρ coupling x to z. Must
	// exceed 2·Binary for the z-prox to stay convex; larger values bind
	// the consensus tighter at the cost of slower progress on f.
	Rho float64
	// Binary is the binarization-prior weight λ on Σ z(1−z): zero keeps
	// the prox a plain box projection, larger values push z harder
	// toward {0,1}.
	Binary float64
	// WarmupIters ramps the x-update learning rate exactly like
	// Pixel.WarmupIters, keeping warm restarts under the Schwarz outer
	// loop cheap.
	WarmupIters int
}

// NewADMM returns an ADMM solver with defaults tuned so the table1
// small case lands within the solvers-experiment factor of Pixel.
func NewADMM(sim *litho.Simulator) *ADMM {
	return &ADMM{Sim: sim, Rho: 0.6, Binary: 0.1, WarmupIters: 6}
}

// Name implements Solver.
func (s *ADMM) Name() string { return "admm-ilt" }

// Solve implements Solver.
func (s *ADMM) Solve(target, init *grid.Mat, p Params) (*grid.Mat, error) {
	if err := p.validateFor(init); err != nil {
		return nil, err
	}
	n := len(init.Data)
	x := make([]float64, n)
	z := make([]float64, n)
	u := make([]float64, n)
	for i, v := range init.Data {
		x[i] = clamp01(v)
		z[i] = x[i]
	}

	xm := grid.NewMat(init.H, init.W)
	gx := make([]float64, n)
	adam := NewAdam(n)
	for it := 0; it < p.Iters; it++ {
		if err := p.Interrupted(); err != nil {
			return nil, err
		}
		// x-update: one gradient of the smooth litho loss plus the
		// quadratic coupling term, stepped with Adam.
		copy(xm.Data, x)
		_, gm := sharedLossGrad(s.Sim, xm, target, p)
		for i := range gx {
			gx[i] = gm.Data[i] + s.Rho*(x[i]-z[i]+u[i])
		}
		grid.PutMat(gm) // LossGrad hands over a pooled matrix
		maskFrozen(gx, p.Freeze, 0, len(gx))
		lr := p.LR
		if w := s.WarmupIters; w > 0 && it < w {
			lr *= float64(it+1) / float64(w+1)
		}
		adam.Step(x, gx, lr)
		for i := range x {
			x[i] = clamp01(x[i])
		}

		// z-update: exact prox of the binarization prior, then dual
		// ascent on the consensus residual. Frozen pixels track x (which
		// maskFrozen pinned), keeping their residual — and dual — zero.
		rho, lam := s.Rho, s.Binary
		if rho <= 2*lam {
			rho = 2*lam + 1e-6
		}
		for i := range z {
			if p.Freeze != nil && p.Freeze.Data[i] >= 0.5 {
				z[i], u[i] = x[i], 0
				continue
			}
			v := x[i] + u[i]
			z[i] = clamp01((rho*v - lam) / (rho - 2*lam))
			u[i] += x[i] - z[i]
		}
	}

	out := grid.NewMat(init.H, init.W)
	if p.Iters == 0 {
		copy(out.Data, x)
	} else {
		copy(out.Data, z)
	}
	grid.PutMat(xm)
	restoreFrozen(out, init, p.Freeze)
	return out, nil
}

func clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}
