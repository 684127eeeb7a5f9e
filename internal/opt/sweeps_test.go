package opt

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"mgsilt/internal/cpu"
	"mgsilt/internal/grid"
)

// needAVX2 skips a test on a CPU without the vector twins.
func needAVX2(tb testing.TB) {
	tb.Helper()
	if !cpu.HasAVX2() {
		tb.Skip("no AVX2 on this CPU")
	}
}

// sameFloat reports whether a and b are the same float64 bits, or both
// NaN: neither x86 nor Go fixes the payload when two NaNs meet, so only
// NaN-ness is held to.
func sameFloat(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// hostileFloat draws a mask-like value, or with probability 1/2 one
// whose sign, rounding or special case a reordered, fused or
// approximated operation would betray: ±0, subnormals, the clamp and
// freeze thresholds and their neighbours, huge magnitudes and (when inf
// is set) ±Inf.
func hostileFloat(rng *rand.Rand, inf bool) float64 {
	v := rng.NormFloat64()
	switch rng.Intn(16) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return v * 0x1p-1060 // subnormal
	case 3:
		return 0.5
	case 4:
		return math.Nextafter(0.5, math.Inf(int(math.Copysign(1, v))))
	case 5:
		return []float64{logitClamp, 1 - logitClamp, pixelBias}[rng.Intn(3)]
	case 6:
		return math.Copysign(math.MaxFloat64, v)
	case 7:
		if inf {
			return math.Inf(int(math.Copysign(1, v)))
		}
	}
	return 0.5 + 0.6*v
}

// hostile is n values drawn by hostileFloat.
func hostile(rng *rand.Rand, n int, inf bool) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = hostileFloat(rng, inf)
	}
	return x
}

// sweepTwin is one per-pixel sweep of the Pixel solver, run through its
// dispatching Go code: with useAVX2 cleared that is the reference loop,
// with it set the twin plus the loop's tail.
type sweepTwin struct {
	name string
	// setup lays out the sweep's inputs, n pixels drawn from x (at least
	// 8n+8 long), and its outputs; kernel runs the sweep once and out
	// returns everything it wrote.
	setup func(x []float64, n int) (kernel func(), out func() []float64)
}

// descentState is a tile of n ≥ 1 pixels whose θ, ∂loss/∂M, mask, Adam
// moments and (when frozen) freeze mask are drawn from x: frozen and
// free pixels mixed, moments of either sign, a step several ticks in.
func descentState(x []float64, n int, frozen bool) *tileState {
	st := &tileState{
		theta: append([]float64(nil), x[:n]...), dTheta: make([]float64, n),
		mask: &grid.Mat{H: 1, W: n, Data: append([]float64(nil), x[n:2*n]...)},
		gm:   &grid.Mat{H: 1, W: n, Data: append([]float64(nil), x[2*n:3*n]...)},
		adam: NewAdam(n), slope: 7.5, lr: 0.3,
	}
	copy(st.adam.m, x[3*n:4*n])
	for i := range st.adam.v {
		st.adam.v[i] = math.Abs(x[4*n+i])
	}
	st.adam.t = 3
	if frozen {
		st.p.Freeze = &grid.Mat{H: 1, W: n, Data: append([]float64(nil), x[5*n:6*n]...)}
	}
	return st
}

// stateOut is everything a descent sweep writes.
func stateOut(st *tileState) func() []float64 {
	return func() []float64 {
		out := append(append([]float64(nil), st.theta...), st.dTheta...)
		return append(append(out, st.adam.m...), st.adam.v...)
	}
}

var sweepTwins = []sweepTwin{
	{"descent", func(x []float64, n int) (func(), func() []float64) {
		// One pixel more than the sweep covers: a tile is never empty.
		st := descentState(x, n+1, false)
		return func() { st.adam.tick(); st.descentSweep(0, n) }, stateOut(st)
	}},
	{"descentFrozen", func(x []float64, n int) (func(), func() []float64) {
		// From pixel 1 on, so the twin starts off the slices' start.
		st := descentState(x, n+1, true)
		return func() { st.adam.tick(); st.descentSweep(1, n+1) }, stateOut(st)
	}},
	{"logit", func(x []float64, n int) (func(), func() []float64) {
		th := append([]float64(nil), x[:n]...)
		return func() { logits(th, pixelSlope) }, func() []float64 { return th }
	}},
	{"theta", func(x []float64, n int) (func(), func() []float64) {
		st := &tileState{
			init:  &grid.Mat{H: 1, W: n, Data: x[:n]},
			theta: make([]float64, n),
		}
		st.p.Freeze = &grid.Mat{H: 1, W: n, Data: x[n : 2*n]}
		return func() { st.thetaSweep(0, n) }, func() []float64 { return st.theta }
	}},
}

// checkSweep runs tw on copies of x with and without the twins and
// reports the first output where they differ.
func checkSweep(t *testing.T, tw sweepTwin, x []float64, n int) {
	t.Helper()
	defer func(v bool) { useAVX2 = v }(useAVX2)
	var res [2][]float64
	for i, vec := range []bool{false, true} {
		useAVX2 = vec
		kernel, out := tw.setup(append([]float64(nil), x...), n)
		kernel()
		res[i] = out()
	}
	got, want := res[1], res[0]
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s n=%d: output %d: vector %v (%#x), Go %v (%#x)", tw.name, n, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestSweepTwinsBitIdentical holds every per-pixel twin of the Pixel
// solver to its Go loop under math.Float64bits at lengths 0–17, so
// every tail is reached, on inputs carrying ±0, subnormals, the clamp
// and freeze thresholds and their neighbours, huge values and ±Inf, then
// with NaNs mixed in.
func TestSweepTwinsBitIdentical(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(41))
	for _, tw := range sweepTwins {
		for n := 0; n <= 17; n++ {
			for rep := 0; rep < 12; rep++ {
				x := hostile(rng, 8*n+8, rep%2 == 1)
				if rep >= 10 {
					for i := 0; i < 3; i++ {
						x[rng.Intn(len(x))] = math.NaN()
					}
				}
				checkSweep(t, tw, x, n)
			}
		}
	}
}

// TestLogitsTwinMatchesLog: the vector logit gives math.Log's bits on a
// dense sweep of (0, 1), every float64 within 4 ulps of the clamps and
// of ½, and the values outside the clamps.
func TestLogitsTwinMatchesLog(t *testing.T) {
	needAVX2(t)
	x := make([]float64, 0, 100000)
	for _, edge := range []float64{logitClamp, 1 - logitClamp, 0.5, math.Sqrt2 / 2, 1 - math.Sqrt2/2} {
		v := edge
		for i := 0; i < 4; i++ {
			v = math.Nextafter(v, math.Inf(-1))
		}
		for i := 0; i < 9; i++ {
			x = append(x, v)
			v = math.Nextafter(v, math.Inf(1))
		}
	}
	x = append(x, 0, math.Copysign(0, -1), -1, 2, math.Inf(1), math.Inf(-1), math.NaN())
	for len(x) < cap(x) {
		x = append(x, float64(len(x))/float64(cap(x)))
	}
	got := append([]float64(nil), x...)
	logits(got, pixelSlope)
	for i, v := range x {
		if want := logit(v, logitClamp) / pixelSlope; !sameFloat(got[i], want) {
			t.Fatalf("logit(%v): vector %v (%#x), Go %v (%#x)", v, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// TestPixelGradCentralDifferenceGoLoops is TestPixelGradCentralDifference
// on the Go loops: the gradient oracle holds on both paths.
func TestPixelGradCentralDifferenceGoLoops(t *testing.T) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	useAVX2 = false
	TestPixelGradCentralDifference(t)
}

// TestPixelSolveTwinBitIdentical: whole solves — free and frozen, pv on
// and off — return the same mask bits with the twins and with the Go
// loops.
func TestPixelSolveTwinBitIdentical(t *testing.T) {
	needAVX2(t)
	defer func(v bool) { useAVX2 = v }(useAVX2)
	sim, target := testSim(t), testTarget()
	for _, p := range []Params{
		{Iters: 4, LR: 0.5, Stretch: 1},
		{Iters: 3, LR: 0.5, Stretch: 1, PVWeight: 0.3, Freeze: ringFreeze(testN)},
	} {
		var out [2]*grid.Mat
		for i, vec := range []bool{false, true} {
			useAVX2 = vec
			var err error
			if out[i], err = NewPixel(sim).Solve(target, target, p); err != nil {
				t.Fatal(err)
			}
		}
		if !sameBits(out[0], out[1]) {
			t.Fatalf("freeze=%v pv=%v: vector and Go solves differ", p.Freeze != nil, p.PVWeight)
		}
	}
}

// TestPixelSolveSteadyStateAllocs pins how often a warm Pixel.Solve
// allocates: θ, ∂θ and the Adam moments come from the grid pool and go
// back when the solve ends, so what is left is the returned mask and
// the solve's small bookkeeping (the tile state, its bound sweeps, the
// batch slices). Drawing the four buffers fresh again would make it 25.
func TestPixelSolveSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	// A garbage collection empties every sync.Pool, and the next solve
	// re-allocates the per-P array of each pool it touches, about 25 in
	// all: +2 on the mean of ten runs. The solve's own garbage starts a
	// cycle every ~80 runs, so whether one lands among the measured runs
	// depends on what ran before in the process. The collector is held
	// off while the solve is counted.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sim, target := testSim(t), testTarget()
	s := NewPixel(sim)
	p := Params{Iters: 3, LR: 0.5, Stretch: 1}
	run := func() {
		m, err := s.Solve(target, target, p)
		if err != nil {
			t.Fatal(err)
		}
		_ = m
	}
	for i := 0; i < 3; i++ {
		run()
	}
	const pinned = 19
	if allocs := testing.AllocsPerRun(10, run); allocs > pinned {
		t.Fatalf("a warm Pixel.Solve allocates %.1f times, want at most %d", allocs, pinned)
	}
}

// FuzzSweeps feeds one per-pixel twin of the Pixel solver, of the
// fuzzer's choosing, arbitrary float64 bit patterns; it must reproduce
// its Go loop as TestSweepTwinsBitIdentical requires.
func FuzzSweeps(f *testing.F) {
	f.Add(uint8(0), uint8(5), []byte{0, 0, 0, 0, 0, 0, 0xe0, 0x3f})
	f.Add(uint8(1), uint8(17), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(2), uint8(9), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f})
	f.Add(uint8(3), uint8(4), []byte{1, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Add(uint8(4), uint8(7), []byte{0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Fuzz(func(t *testing.T, kernel, length uint8, data []byte) {
		needAVX2(t)
		tw := sweepTwins[int(kernel)%len(sweepTwins)]
		n := int(length) % 40
		// The data's bytes, eight at a time and cycled, are the float64
		// bit patterns of the input.
		x := make([]float64, 8*n+8)
		for i := range x {
			var b [8]byte
			for k := range b {
				if len(data) > 0 {
					b[k] = data[(8*i+k)%len(data)]
				}
			}
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		checkSweep(t, tw, x, n)
	})
}

// BenchmarkSweeps times each per-pixel sweep both ways on the same
// pixels: as many as a row of the flow's 64- and 128-px tiles, and a
// whole 64×64 tile (4 096). A sweep changes its own state (a descent
// step decays the Adam moments of a frozen pixel by β1, subnormal after
// some 6 700 steps), so every 64 ops start over from the same state,
// laid out again outside the timer: ns/op does not depend on b.N. Only
// the path differs between go and avx2.
func BenchmarkSweeps(b *testing.B) {
	for _, n := range []int{64, 128, 4096} {
		rng := rand.New(rand.NewSource(7))
		x := make([]float64, 8*n+8)
		for i := range x {
			x[i] = rng.Float64()
		}
		for _, tw := range sweepTwins {
			for _, vec := range []bool{false, true} {
				path := map[bool]string{false: "go", true: "avx2"}[vec]
				b.Run(fmt.Sprintf("%s/n=%d/%s", tw.name, n, path), func(b *testing.B) {
					if vec {
						needAVX2(b)
					}
					defer func(v bool) { useAVX2 = v }(useAVX2)
					useAVX2 = vec
					var kernel func()
					for i := 0; i < b.N; i++ {
						if i%64 == 0 {
							b.StopTimer()
							kernel, _ = tw.setup(append([]float64(nil), x...), n)
							b.StartTimer()
						}
						kernel()
					}
				})
			}
		}
	}
}
