package fft

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mgsilt/internal/cpu"
	"mgsilt/internal/grid"
)

// butterflyTwin pairs one Go butterfly loop with its vector twin, both
// behind the signature of the strip loops (in-row loops ignore nb).
type butterflyTwin struct {
	name  string
	strip bool // the loop runs over the rows of an nb-column strip
	// serves reports whether the loop runs the plan stage st.
	serves      func(st *stage) bool
	goLoop, vec func(x []complex128, nb int, tw []complex128, size int)
}

func isRadix4(st *stage) bool { return st.kind == radix4 && st.size != 4 }

// butterflyTwins are the in-place passes with a twin: the radix-4 passes
// between a plan's first and last. The other in-place loops run only
// the one pass of a plan of at most four points, on every CPU.
var butterflyTwins = []butterflyTwin{
	{"radix4Rows", true, isRadix4, radix4Rows, radix4RowsAVX2},
	{"radix4Pass", false, isRadix4,
		func(x []complex128, _ int, tw []complex128, size int) { radix4Pass(x, tw, size) },
		func(x []complex128, _ int, tw []complex128, size int) { radix4PassAVX2(x, tw, size) }},
}

// twinSizes is every plan length up to 512: its plans hold every stage
// kind and span the transforms build on the flow's grids.
var twinSizes = []int{2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512}

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

// firstDiff returns the first index where got and want differ under
// sameFloat, or -1.
func firstDiff(got, want []complex128) int {
	for i := range got {
		if !sameFloat(real(got[i]), real(want[i])) || !sameFloat(imag(got[i]), imag(want[i])) {
			return i
		}
	}
	return -1
}

// hostileFloat draws a Gaussian value, or with probability 1/2 one of
// the values whose sign, gradual underflow or overflow a reordered or
// fused operation would betray: ±0, subnormals, values whose products
// underflow or overflow, and (when inf is set) ±Inf.
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
		return v * 0x1p-1020 // subnormal once multiplied by a twiddle
	case 4:
		return v * 0x1p1022 // overflows in a sum
	case 5:
		return math.Copysign(math.MaxFloat64, v)
	case 6:
		return v * 0x1p-52 // tiny against its neighbours
	case 7:
		if inf {
			return math.Inf(1 - 2*rng.Intn(2))
		}
	}
	return v
}

// hostileData is n complex values drawn by hostileFloat.
func hostileData(rng *rand.Rand, n int, inf bool) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(hostileFloat(rng, inf), hostileFloat(rng, inf))
	}
	return x
}

// checkTwin runs tw's two loops on copies of x and reports the first
// element where they differ.
func checkTwin(t *testing.T, tw butterflyTwin, x []complex128, nb int, tab []complex128, size int, what string) {
	t.Helper()
	want := append([]complex128(nil), x...)
	got := append([]complex128(nil), x...)
	tw.goLoop(want, nb, tab, size)
	tw.vec(got, nb, tab, size)
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("%s %s: element %d: vector %v, Go %v (input %v)", tw.name, what, i, got[i], want[i], x[i])
	}
}

// planStage is one stage of the n-point plan.
type planStage struct {
	n  int
	st *stage
}

// twinStages lists every stage of the plans up to 512 points that tw
// serves.
func twinStages(tw butterflyTwin) []planStage {
	var out []planStage
	for _, n := range twinSizes {
		for si := range planFor(n).stages {
			if st := &planFor(n).stages[si]; tw.serves(st) {
				out = append(out, planStage{n, st})
			}
		}
	}
	return out
}

// TestButterflyTwinsBitIdentical runs each vector twin against its Go
// loop at every stage the plans up to 512 points build, both twiddle
// directions, and strip widths 1–16, so odd widths reach the X-register
// tail; the in-row loops run on one and on two whole rows. Inputs carry
// ±0, subnormals, overflowing magnitudes and ±Inf. Every output must
// carry the Go loop's bits; a NaN only has to be a NaN.
func TestButterflyTwinsBitIdentical(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(39))
	for _, tw := range butterflyTwins {
		stages := twinStages(tw)
		if len(stages) == 0 {
			t.Errorf("%s: no plan stage up to 512 points runs it", tw.name)
		}
		for _, ps := range stages {
			n, st := ps.n, ps.st
			for _, tab := range [][]complex128{st.tw, st.twi} {
				for _, inf := range []bool{false, true} {
					if !tw.strip {
						for _, rows := range []int{1, 2} {
							what := fmt.Sprintf("n=%d size=%d rows=%d inf=%v", n, st.size, rows, inf)
							checkTwin(t, tw, hostileData(rng, rows*n, inf), 0, tab, st.size, what)
						}
						continue
					}
					for nb := 1; nb <= colStrip; nb++ {
						what := fmt.Sprintf("n=%d size=%d nb=%d inf=%v", n, st.size, nb, inf)
						checkTwin(t, tw, hostileData(rng, nb*n, inf), nb, tab, st.size, what)
					}
				}
			}
		}
	}
}

// TestButterflyTwinsNaN: a NaN anywhere in the input comes out as NaN
// wherever the Go loop puts one, and nowhere else.
func TestButterflyTwinsNaN(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(391))
	for _, tw := range butterflyTwins {
		for _, n := range []int{24, 96, 128} {
			for si := range planFor(n).stages {
				st := &planFor(n).stages[si]
				if !tw.serves(st) {
					continue
				}
				nb := 1
				if tw.strip {
					nb = 7
				}
				x := hostileData(rng, nb*n, true)
				for i := 0; i < 4; i++ {
					k := rng.Intn(len(x))
					x[k] = complex(math.NaN(), imag(x[k]))
				}
				checkTwin(t, tw, x, nb, st.tw, st.size, fmt.Sprintf("n=%d size=%d NaN", n, st.size))
			}
		}
	}
}

// TestTransformsTwinBitIdentical: the 2-D transform, then a column pass
// over columns 1…21 (a full and an odd strip), give the same bits with
// the vector twins and with the Go loops, in both directions, at every
// plan length up to 512.
func TestTransformsTwinBitIdentical(t *testing.T) {
	needAVX2(t)
	defer func(v bool) { useAVX2 = v }(useAVX2)
	rng := rand.New(rand.NewSource(3939))
	for _, n := range twinSizes {
		m := signedZeroCMat(rng, n, n)
		p := planFor(n)
		for _, inverse := range []bool{false, true} {
			var out [2]*grid.CMat
			for i, vec := range []bool{false, true} {
				useAVX2 = vec
				out[i] = m.Clone()
				xform2D{inverse: inverse}.serial(out[i], p, p)
				p.columnsPass(out[i], min(1, n-1), min(22, n), inverse)
			}
			if !bitsEqual(out[0], out[1]) {
				t.Fatalf("n=%d inverse=%v: vector and Go transforms differ", n, inverse)
			}
		}
	}
}

// FuzzButterflies feeds each twin arbitrary float64 bit patterns, on a
// plan stage, strip width and direction the fuzzer picks; the vector
// twin must reproduce its Go loop as TestButterflyTwinsBitIdentical
// and TestFusedTwinsBitIdentical require. Kernels past the in-place
// butterflies are the gathering first and storing last passes, their
// strips inside a row stride of up to three more columns.
func FuzzButterflies(f *testing.F) {
	f.Add(uint8(0), uint8(5), uint8(3), false, []byte{0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(2), uint8(10), uint8(16), true, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(4), uint8(9), uint8(0), false, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f})
	f.Add(uint8(5), uint8(11), uint8(1), true, []byte{1, 0, 0, 0, 0, 0, 0xf0, 0x7f})
	f.Add(uint8(8), uint8(7), uint8(0), true, []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 1})
	f.Add(uint8(13), uint8(3), uint8(37), false, []byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0xf0, 0xff})
	f.Add(uint8(15), uint8(2), uint8(20), true, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, kernel, stageIdx, width uint8, inverse bool, data []byte) {
		needAVX2(t)
		// The data's bytes, eight at a time and cycled, are the float64
		// bit patterns of the input.
		next := 0
		word := func() float64 {
			var b [8]byte
			for k := range b {
				if len(data) > 0 {
					b[k] = data[(8*next+k)%len(data)]
				}
			}
			next++
			return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		draw := func(k int) []complex128 {
			x := make([]complex128, k)
			for i := range x {
				x[i] = complex(word(), word())
			}
			return x
		}
		if k := int(kernel) % (len(butterflyTwins) + len(fusedTwins)); k >= len(butterflyTwins) {
			tw := fusedTwins[k-len(butterflyTwins)]
			stages := fusedStages(tw)
			ps := stages[int(stageIdx)%len(stages)]
			nb, stride := 1, 1
			if tw.strip {
				nb = int(width)%colStrip + 1
				stride = nb + int(width)/colStrip%4
			}
			c := newFusedCase(planFor(ps.n), ps.st, nb, stride, inverse, draw)
			c.alias = width%2 == 1
			checkFused(t, tw, c, fmt.Sprintf("n=%d nb=%d stride=%d", ps.n, nb, stride))
			return
		}
		tw := butterflyTwins[int(kernel)%len(butterflyTwins)]
		stages := twinStages(tw)
		ps := stages[int(stageIdx)%len(stages)]
		nb := 1
		if tw.strip {
			nb = int(width)%colStrip + 1
		}
		x := draw(nb * ps.n)
		tab := ps.st.tw
		if inverse {
			tab = ps.st.twi
		}
		checkTwin(t, tw, x, nb, tab, ps.st.size, fmt.Sprintf("n=%d size=%d nb=%d", ps.n, ps.st.size, nb))
	})
}

// lastStage returns the last stage of the n-point plan that tw serves,
// or nil.
func lastStage(tw butterflyTwin, n int) *stage {
	var st *stage
	for si := range planFor(n).stages {
		if s := &planFor(n).stages[si]; tw.serves(s) {
			st = s
		}
	}
	return st
}

// BenchmarkButterflies times each loop both ways on the same data: the
// strip loop on a 16-column strip and the in-row loop on one row, at
// the last stage they serve in the 128-point plan.
// The gathering first and storing last passes run the first or last
// stage of every plan the flow's rows take that has it — the reduced
// grids' 24, 48 and 96 points and the tiles' 64 and 128 — the strips
// inside rows of as many columns and the stores scaling. Only the path
// differs between go and avx2.
func BenchmarkButterflies(b *testing.B) {
	for _, tw := range butterflyTwins {
		n := 128
		st := lastStage(tw, n)
		nb := 1
		if tw.strip {
			nb = colStrip
		}
		x0 := randComplex(rand.New(rand.NewSource(7)), nb*n)
		x := make([]complex128, len(x0))
		for _, path := range []struct {
			name string
			loop func(x []complex128, nb int, tw []complex128, size int)
		}{{"go", tw.goLoop}, {"avx2", tw.vec}} {
			b.Run(tw.name+"/"+path.name, func(b *testing.B) {
				if path.name == "avx2" {
					needAVX2(b)
				}
				for i := 0; i < b.N; i++ {
					// A pass at most doubles the magnitudes: start over
					// long before they overflow.
					if i%64 == 0 {
						copy(x, x0)
					}
					path.loop(x, nb, st.tw, st.size)
				}
			})
		}
	}
	for _, tw := range fusedTwins {
		for _, n := range []int{24, 48, 64, 96, 128} {
			p := planFor(n)
			st := tw.stage(p)
			if st == nil {
				continue
			}
			nb, stride := 1, 1
			if tw.strip {
				nb, stride = colStrip, n
			}
			c := newFusedCase(p, st, nb, stride, true, func(k int) []complex128 {
				return randComplex(rand.New(rand.NewSource(7)), k)
			})
			for _, path := range []struct {
				name string
				loop func(c *fusedCase)
			}{{"go", tw.goLoop}, {"avx2", tw.vec}} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", tw.name, n, path.name), func(b *testing.B) {
					if path.name == "avx2" {
						needAVX2(b)
					}
					for i := 0; i < b.N; i++ {
						path.loop(c)
					}
				})
			}
		}
	}
}
