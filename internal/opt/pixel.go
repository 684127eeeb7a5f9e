package opt

import (
	"fmt"

	"mgsilt/internal/grid"
	"mgsilt/internal/litho"
	"mgsilt/internal/parallel"
)

// Pixel is the sigmoid-parameterised pixel-based ILT solver: the mask
// is M = σ(slope·θ) with free parameters θ per pixel, optimised with
// Adam against the sigmoid-resist L2 objective. Because every pixel is
// free, the solver nucleates sub-resolution assist features (SRAFs)
// wherever the gradient asks for them.
type Pixel struct {
	Sim *litho.Simulator
}

// The Pixel numerics. They are code, not settings: a change to one moves
// solve outputs, so it bumps cache.codeVersion.
const (
	// pixelSlope is the mask-sigmoid steepness at the first iteration;
	// larger values push the solution toward binary masks faster.
	pixelSlope = 4
	// pixelFinalSlope is the steepness the slope anneals to, linearly
	// across the solve. Annealing drives the converged mask toward binary
	// values, so the 0.5-threshold binarisation — and any later
	// small-step refinement — no longer teeters on soft gray edges.
	pixelFinalSlope = 12
	// pixelBias seeds background parameters slightly above the hard-zero
	// pole so SRAFs can nucleate (a hard 0 has zero sigmoid gradient).
	// Expressed as the background mask level.
	pixelBias = 0.08
	// pixelWarmup is the number of iterations the learning rate ramps
	// over. Adam's first bias-corrected steps are ±lr sign steps
	// (m̂/√v̂ = ±1), so a cold restart on a warm mask — exactly what every
	// fine-grid Schwarz stage does — would churn converged pixels; the
	// ramp makes warm restarts nearly free.
	pixelWarmup = 6
	// pixelSmooth is the weight of the mask-smoothness regulariser
	// (½·Σ|∇M|², applied through the sigmoid chain rule). GPU ILT solvers
	// regularise contours for mask manufacturability; without it the
	// binarised masks carry pixel-level jaggies that saturate the
	// stitch-loss metric's baseline.
	pixelSmooth = 0.2
)

// NewPixel returns a Pixel solver on sim.
func NewPixel(sim *litho.Simulator) *Pixel {
	return &Pixel{Sim: sim}
}

// Name implements Solver.
func (s *Pixel) Name() string { return "pixel-ilt" }

// Solve implements Solver.
func (s *Pixel) Solve(target, init *grid.Mat, p Params) (*grid.Mat, error) {
	outs, errs := s.descend([]*grid.Mat{target}, []*grid.Mat{init}, []Params{p})
	return outs[0], errs[0]
}

// SolveBatch implements BatchSolver.
func (s *Pixel) SolveBatch(targets, inits []*grid.Mat, ps []Params) ([]*grid.Mat, []error) {
	return s.descend(targets, inits, ps)
}

// descend is the descent loop: T tiles optimised in lockstep, every
// iteration's T loss-gradient evaluations collapsed into one
// litho.LossGradBatch call. θ, Adam state, freeze handling, warm-up and
// annealing are per tile, so a tile's mask does not depend on what else
// is in the batch; a tile that fails validation or whose context cancels
// drops out (outs[i] nil, errs[i] set) without disturbing the others.
func (s *Pixel) descend(targets, inits []*grid.Mat, ps []Params) ([]*grid.Mat, []error) {
	T := len(inits)
	outs := make([]*grid.Mat, T)
	errs := make([]error, T)
	failAll := func(err error) ([]*grid.Mat, []error) {
		for i := range errs {
			errs[i] = err
		}
		return outs, errs
	}
	if len(targets) != T || len(ps) != T {
		return failAll(fmt.Errorf("opt: batch size mismatch: %d targets, %d inits, %d params", len(targets), T, len(ps)))
	}
	if T == 0 {
		return outs, errs
	}
	for i := range ps {
		if !lockstepCompatible(ps[i], ps[0]) {
			return failAll(fmt.Errorf("opt: batch member %d has incompatible lockstep params", i))
		}
		if !inits[i].SameShape(inits[0]) {
			return failAll(fmt.Errorf("opt: batch member %d is %dx%d, want %dx%d", i, inits[i].H, inits[i].W, inits[0].H, inits[0].W))
		}
	}

	p0 := ps[0]
	n := len(inits[0].Data)
	slopeAt := func(it int) float64 {
		if p0.Iters <= 1 {
			return pixelSlope
		}
		return pixelSlope + (pixelFinalSlope-pixelSlope)*float64(it)/float64(p0.Iters-1)
	}

	active := make([]*tileState, 0, T)
	for i := range inits {
		if err := ps[i].validateFor(inits[i]); err != nil {
			errs[i] = err
			continue
		}
		h, w := inits[i].H, inits[i].W
		st := &tileState{
			idx: i, p: ps[i], target: targets[i], init: inits[i],
			mask: grid.NewMat(h, w), adam: NewAdam(n),
			thetaMat: grid.GetMat(h, w), dThetaMat: grid.GetMat(h, w),
		}
		st.theta, st.dTheta = st.thetaMat.Data, st.dThetaMat.Data
		st.maskStep, st.descentStep, st.laplacianStep = st.maskSweep, st.descentSweep, st.laplacianSweep
		sweep(n, st.thetaSweep)
		active = append(active, st)
	}

	masks := make([]*grid.Mat, 0, T)
	tgts := make([]*grid.Mat, 0, T)
	for it := 0; it < p0.Iters && len(active) > 0; it++ {
		// Drop cancelled tiles before spending the iteration on them;
		// the rest of the batch continues undisturbed.
		live := active[:0]
		for _, st := range active {
			if err := st.p.Interrupted(); err != nil {
				errs[st.idx] = err
				st.release()
				continue
			}
			live = append(live, st)
		}
		active = live
		if len(active) == 0 {
			break
		}
		slope := slopeAt(it)
		masks, tgts = masks[:0], tgts[:0]
		for _, st := range active {
			st.slope = slope
			sweep(n, st.maskStep)
			masks = append(masks, st.mask)
			tgts = append(tgts, st.target)
		}
		_, gms := s.Sim.LossGradBatch(masks, tgts, litho.LossOpts{Stretch: p0.Stretch, PVWeight: p0.PVWeight})
		lr := p0.LR
		if it < pixelWarmup {
			lr *= float64(it+1) / float64(pixelWarmup+1)
		}
		for bi, st := range active {
			gm := gms[bi]
			st.gm, st.lr = gm, lr
			parallel.DoChunks(st.mask.H, parallel.Limit(n), st.laplacianStep)
			st.adam.tick()
			sweep(n, st.descentStep)
			st.gm = nil
			grid.PutMat(gm) // LossGradBatch hands over pooled matrices
		}
	}

	finalSlope := slopeAt(p0.Iters - 1)
	for _, st := range active {
		st.slope = finalSlope
		sweep(n, st.maskStep)
		restoreFrozen(st.mask, st.init, st.p.Freeze)
		outs[st.idx] = st.mask
		st.release()
	}
	return outs, errs
}

// tileState is one tile of the descent loop. Its per-pixel sweeps and
// its row sweep are methods bound once per solve, so handing them to the
// worker pool every iteration allocates nothing.
type tileState struct {
	idx    int
	p      Params
	target *grid.Mat
	init   *grid.Mat
	theta  []float64
	dTheta []float64
	mask   *grid.Mat
	adam   *Adam
	// thetaMat and dThetaMat are the pooled matrices theta and dTheta
	// live in.
	thetaMat, dThetaMat *grid.Mat

	// The iteration in flight: the annealed slope, the ramped learning
	// rate and the gradient with respect to the mask.
	slope, lr float64
	gm        *grid.Mat

	maskStep, descentStep, laplacianStep func(lo, hi int)
}

// release hands the tile's pooled buffers back once its solve is over;
// the mask, which the solve returns, is not one of them.
func (st *tileState) release() {
	grid.PutMat(st.thetaMat)
	grid.PutMat(st.dThetaMat)
	st.adam.release()
	st.theta, st.dTheta, st.thetaMat, st.dThetaMat = nil, nil, nil, nil
}

// thetaSweep initialises θ on pixels [lo, hi) from the initial mask.
func (st *tileState) thetaSweep(lo, hi int) {
	theta := st.theta[lo:hi]
	for j, v := range st.init.Data[lo:hi] {
		// Lift dead-zero pixels to the background bias so they keep a
		// usable gradient — except frozen pixels, which must reproduce
		// their boundary data exactly.
		if v < pixelBias && (st.p.Freeze == nil || st.p.Freeze.Data[lo+j] < 0.5) {
			v = pixelBias
		}
		theta[j] = v
	}
	logits(theta, pixelSlope)
}

// maskSweep writes the mask M = σ(slope·θ) on pixels [lo, hi).
func (st *tileState) maskSweep(lo, hi int) {
	litho.Sigmoids(st.mask.Data[lo:hi], st.theta[lo:hi], st.slope)
}

// descentSweep takes pixels [lo, hi) one descent step: the sigmoid chain
// rule turns ∂loss/∂M into ∂loss/∂θ, frozen pixels drop out, Adam moves
// θ. The caller has ticked the optimiser. The twin does all three on the
// head of the range; the Go loops do the rest.
func (st *tileState) descentSweep(lo, hi int) {
	if useAVX2 {
		lo = st.descentTwin(lo, hi)
	}
	dTheta, mask, gm := st.dTheta[lo:hi], st.mask.Data[lo:hi], st.gm.Data[lo:hi]
	for j, m := range mask {
		dTheta[j] = gm[j] * st.slope * m * (1 - m)
	}
	maskFrozen(st.dTheta, st.p.Freeze, lo, hi)
	st.adam.stepRange(st.theta, st.dTheta, st.lr, lo, hi)
}

// descentK are the per-call constants of descentAVX2, in the order of
// its offsets.
type descentK struct {
	slope, lr, beta1, oneMinusBeta1, beta2, oneMinusBeta2, c1, c2, eps float64
}

// descentTwin runs descentSweep on the longest head of [lo, hi) that is
// a multiple of 4 long and returns where it ends.
func (st *tileState) descentTwin(lo, hi int) int {
	a := st.adam
	a.check(st.theta, st.dTheta)
	end := lo + (hi-lo)&^3
	var freeze []float64
	if st.p.Freeze != nil {
		freeze = st.p.Freeze.Data[lo:end]
	}
	k := descentK{slope: st.slope, lr: st.lr, beta1: a.Beta1, oneMinusBeta1: 1 - a.Beta1,
		beta2: a.Beta2, oneMinusBeta2: 1 - a.Beta2, eps: a.Eps}
	k.c1, k.c2 = a.corrections()
	descentAVX2(st.theta[lo:end], st.dTheta[lo:end], a.m[lo:end], a.v[lo:end],
		st.mask.Data[lo:end], st.gm.Data[lo:end], freeze, &k)
	return end
}

// laplacianSweep adds the smoothness gradient to rows [lo, hi) of gm.
func (st *tileState) laplacianSweep(lo, hi int) { addLaplacian(st.gm, st.mask, pixelSmooth, lo, hi) }

// sweep runs a per-pixel step over [0, n), on as many goroutines of the
// worker pool as n is worth. Every pixel is written by exactly one
// goroutine and depends on no other, so the result is the serial one to
// the bit at any pool width.
func sweep(n int, step func(lo, hi int)) {
	parallel.DoChunks(n, parallel.Limit(n), step)
}

// addLaplacian accumulates the gradient of the smoothness energy
// ½·Σ|∇M|² into rows [y0, y1) of gm: d/dM = -ΔM, computed with mirrored
// boundaries. A row reads three rows of mask and writes only its own, so
// the rows split anywhere.
//
// Every pixel is 4·m − up − down − left − right in that order. Clamping a
// row index selects the row slice once per row; only the first and last
// column clamp a column index, the rest index their three rows directly.
func addLaplacian(gm, mask *grid.Mat, w float64, y0, y1 int) {
	h, last := mask.H, mask.W-1
	for y := y0; y < y1; y++ {
		up, mid, down := mask.Row(max(y-1, 0)), mask.Row(y), mask.Row(min(y+1, h-1))
		g := gm.Row(y)
		g[0] += w * (4*mid[0] - up[0] - down[0] - mid[0] - mid[min(1, last)])
		for x := 1; x < last; x++ {
			g[x] += w * (4*mid[x] - up[x] - down[x] - mid[x-1] - mid[x+1])
		}
		if last > 0 {
			g[last] += w * (4*mid[last] - up[last] - down[last] - mid[last-1] - mid[last])
		}
	}
}
