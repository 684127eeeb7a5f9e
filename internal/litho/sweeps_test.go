package litho

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
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

// hostileFloat draws a value of either sign around the sigmoid's range,
// or with probability 1/2 one whose sign, rounding or special case a
// reordered, fused or approximated operation would betray: ±0,
// subnormals, ±40 and their neighbours, huge magnitudes and (when inf
// is set) ±Inf.
func hostileFloat(rng *rand.Rand, inf bool) float64 {
	v := rng.NormFloat64()
	sign := math.Copysign(1, v)
	switch rng.Intn(16) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return v * 0x1p-1060 // subnormal
	case 3:
		return 40 * sign
	case 4:
		return math.Nextafter(40*sign, math.Inf(1))
	case 5:
		return math.Nextafter(40*sign, math.Inf(-1))
	case 6:
		return math.Copysign(math.MaxFloat64, v)
	case 7:
		if inf {
			return math.Inf(int(sign))
		}
	}
	return 25 * v
}

// hostile is n values drawn by hostileFloat.
func hostile(rng *rand.Rand, n int, inf bool) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = hostileFloat(rng, inf)
	}
	return x
}

// complexes pairs consecutive values of x into n complex128.
func complexes(x []float64, n int) []complex128 {
	z := make([]complex128, n)
	for i := range z {
		z[i] = complex(x[2*i], x[2*i+1])
	}
	return z
}

// floats spreads complex values into their parts.
func floats(z []complex128) []float64 {
	out := make([]float64, 0, 2*len(z))
	for _, v := range z {
		out = append(out, real(v), imag(v))
	}
	return out
}

// sweepTwin is one per-pixel loop, run through its dispatching Go
// function: with useAVX2 cleared that is the reference loop, with it set
// the twin plus the loop's tail.
type sweepTwin struct {
	name string
	// setup lays out the loop's inputs, n elements drawn from x (at
	// least 8n+8 long), and its outputs; kernel runs the loop once and
	// out returns everything it wrote.
	setup func(x []float64, n int) (kernel func(), out func() []float64)
}

// values returns an out function for float outputs.
func values(outs ...[]float64) func() []float64 {
	return func() []float64 {
		var all []float64
		for _, o := range outs {
			all = append(all, o...)
		}
		return all
	}
}

var sweepTwins = []sweepTwin{
	{"sigmoid", func(x []float64, n int) (func(), func() []float64) {
		dst := make([]float64, 4*n)
		return func() {
			for i, a := range []float64{1, 4, 7.25, -12} {
				Sigmoids(dst[i*n:(i+1)*n], x[:n], a)
			}
		}, values(dst)
	}},
	{"resist", func(x []float64, n int) (func(), func() []float64) {
		// Intensities around the threshold at every dose, so the argument
		// crosses the sigmoid's whole range, and hostile targets.
		in := make([]float64, n)
		for i := range in {
			in[i] = 0.225 + x[i]/1000
		}
		tg := x[n : 2*n]
		g, terms := make([]float64, 3*n), make([]float64, 3*n)
		return func() {
			for i, dose := range []float64{0.98, 1, 1.02} {
				resistSweep(g[i*n:(i+1)*n], terms[i*n:(i+1)*n], in, tg, 40, dose, 0.225)
			}
			// Raw hostile intensities too.
			resistSweep(g[:n], terms[:n], x[2*n:3*n], tg, 40, 1, 0.225)
		}, values(g, terms)
	}},
	{"intensity", func(x []float64, n int) (func(), func() []float64) {
		out := append([]float64(nil), x[:n]...)
		a := complexes(x[n:], n)
		return func() { addIntensity(out, a, 0.375) }, values(out)
	}},
	{"mulRealConj", func(x []float64, n int) (func(), func() []float64) {
		a := &grid.CMat{H: 1, W: n, Data: complexes(x, n)}
		g := &grid.Mat{H: 1, W: n, Data: x[2*n : 3*n]}
		return func() { mulRealConj(a, g) }, func() []float64 { return floats(a.Data) }
	}},
}

// runSweep runs tw on copies of x with and without the twins and
// returns both outputs.
func runSweep(tw sweepTwin, x []float64, n int) (got, want []float64) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	var res [2][]float64
	for i, vec := range []bool{false, true} {
		useAVX2 = vec
		kernel, out := tw.setup(append([]float64(nil), x...), n)
		kernel()
		res[i] = out()
	}
	return res[1], res[0]
}

// checkSweep reports the first output where tw's twin and Go loop
// differ.
func checkSweep(t *testing.T, tw sweepTwin, x []float64, n int) {
	t.Helper()
	got, want := runSweep(tw, x, n)
	for i := range want {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s n=%d: output %d: vector %v (%#x), Go %v (%#x)", tw.name, n, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestSweepTwinsBitIdentical holds every per-pixel twin to its Go loop
// under math.Float64bits at lengths 0–17, so every tail is reached, on
// inputs carrying ±0, subnormals, ±40 and their neighbours, huge values
// and ±Inf, then with NaNs mixed in.
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

// TestSigmoidsTwinMatchesSigmoid: the vector sigmoid gives Sigmoid's
// bits on 100 003 arguments — a dense sweep of [−41, 41], every
// float64 within 4 ulps of ±40 and of the table's rounding edges, and
// the special values.
func TestSigmoidsTwinMatchesSigmoid(t *testing.T) {
	needAVX2(t)
	x := make([]float64, 0, 100003)
	for _, edge := range []float64{40, -40, 0} {
		v := edge
		for i := 0; i < 4; i++ {
			v = math.Nextafter(v, math.Inf(-1))
		}
		for i := 0; i < 9; i++ {
			x = append(x, v)
			v = math.Nextafter(v, math.Inf(1))
		}
	}
	x = append(x, math.Copysign(0, -1), 0x1p-1074, -0x1p-1074, 0x1p-1022, math.MaxFloat64,
		-math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 708, -708, 745, -745)
	for len(x) < cap(x) {
		x = append(x, -41+82*float64(len(x))/float64(cap(x)))
	}
	got := make([]float64, len(x))
	Sigmoids(got, x, 1)
	for i, v := range x {
		if want := Sigmoid(v); !sameFloat(got[i], want) {
			t.Fatalf("Sigmoid(%v): vector %v (%#x), scalar %v (%#x)", v, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
}

// TestLossGradTwinBitIdentical: whole evaluations — pv on and off,
// stretch 1 and 2, a batch of two — give the same loss and gradient
// bits with the twins and with the Go loops.
func TestLossGradTwinBitIdentical(t *testing.T) {
	needAVX2(t)
	defer func(v bool) { useAVX2 = v }(useAVX2)
	sim := simN(t, testN, false)
	rng := rand.New(rand.NewSource(4242))
	targets := []*grid.Mat{centredSquare(testN, 3*testN/8), centredSquare(testN, testN/4)}
	masks := make([]*grid.Mat, len(targets))
	for i, tg := range targets {
		masks[i] = tg.Clone()
		for j := range masks[i].Data {
			masks[i].Data[j] = 0.9*masks[i].Data[j] + 0.1*rng.Float64()
		}
	}
	for _, opts := range []LossOpts{{Stretch: 1}, {Stretch: 1, PVWeight: 0.5}, {Stretch: 2}} {
		var losses [2][]float64
		var grads [2][]*grid.Mat
		for i, vec := range []bool{false, true} {
			useAVX2 = vec
			losses[i], grads[i] = sim.LossGradBatch(masks, targets, opts)
		}
		for p := range masks {
			if math.Float64bits(losses[0][p]) != math.Float64bits(losses[1][p]) {
				t.Fatalf("%+v pair %d: loss vector %v, Go %v", opts, p, losses[1][p], losses[0][p])
			}
			for j, w := range grads[0][p].Data {
				if g := grads[1][p].Data[j]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%+v pair %d: gradient %d: vector %v, Go %v", opts, p, j, g, w)
				}
			}
		}
	}
}

// FuzzSweeps feeds one per-pixel twin, of the fuzzer's choosing,
// arbitrary float64 bit patterns; it must reproduce its Go loop as
// TestSweepTwinsBitIdentical requires.
func FuzzSweeps(f *testing.F) {
	f.Add(uint8(0), uint8(5), []byte{0, 0, 0, 0, 0, 0, 0x44, 0x40})
	f.Add(uint8(1), uint8(17), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(2), uint8(9), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f})
	f.Add(uint8(3), uint8(4), []byte{1, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Add(uint8(5), uint8(3), []byte{0, 0, 0, 0, 0, 0, 0, 0x80})
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

// BenchmarkSweeps times each per-pixel loop both ways on the same
// elements: a row of the reduced grids the flow's tiles image on (24,
// 48 and 96 wide), where the row loops run, and a whole 64×64 tile
// (4 096); an op of sigmoid is its four sweeps, of resist its four.
// Only the path differs between go and avx2. The data are ±1, so the
// loops that work in place neither overflow nor underflow however long
// they run.
func BenchmarkSweeps(b *testing.B) {
	for _, n := range []int{24, 48, 96, 4096} {
		rng := rand.New(rand.NewSource(7))
		x := make([]float64, 8*n+8)
		for i := range x {
			x[i] = float64(1 - 2*rng.Intn(2))
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
					kernel, _ := tw.setup(append([]float64(nil), x...), n)
					for i := 0; i < b.N; i++ {
						kernel()
					}
				})
			}
		}
	}
}
