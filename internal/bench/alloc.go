package bench

import (
	"runtime"

	"mgsilt/internal/grid"
	"mgsilt/internal/litho"
	"mgsilt/internal/parallel"
)

// MeasureLossGradAllocs measures the steady-state heap allocations per
// LossGrad evaluation on the environment's native-grid simulator, on
// the caller alone (pool width 1) and fanned out (width 2), and returns
// the larger. It mirrors testing.AllocsPerRun: warm-up iterations so
// every size-keyed pool is populated, then a malloc-count delta averaged
// over repeats — on one OS thread at width 1; at width 2 the helper needs
// a thread of its own, and the count is the whole process's. The
// engine's contract is 0 at both — cmd/iltbench records the measurement
// in the trajectory document so cmd/benchdiff can gate regressions.
func (e *Env) MeasureLossGradAllocs() float64 {
	prev := parallel.Workers()
	defer parallel.SetWorkers(prev)
	return max(e.lossGradAllocsAt(1), e.lossGradAllocsAt(2))
}

// lossGradAllocsAt is the measurement at one pool width.
func (e *Env) lossGradAllocsAt(width int) float64 {
	n := e.Scale.N
	target := grid.NewMat(n, n)
	for y := n / 4; y < 3*n/4; y++ {
		row := target.Row(y)
		for x := n / 4; x < 3*n/4; x++ {
			row[x] = 1
		}
	}
	mask := target.Clone().Scale(0.9)

	parallel.SetWorkers(width)
	if width == 1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}

	run := func() {
		_, g := e.Sim.LossGrad(mask, target, litho.LossOpts{Stretch: 1})
		grid.PutMat(g)
	}
	// Warm the size-keyed pools. They are per P, and a helper fills its
	// own: a fanned-out evaluation still allocates once in ten calls after
	// a dozen of them and not at all after a hundred.
	for i := 0; i < 200; i++ {
		run()
	}

	const repeats = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < repeats; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / repeats
}
