package fft

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mgsilt/internal/grid"
)

// The references the fused first and last passes are held to: the
// transforms as they ran while the digit reversal was a sweep of its own
// (in-place transpositions in a row, a permuted copy into scratch for a
// column strip) and the inverse 1/n a sweep after the last pass. They
// call the Go loops directly, whatever useAVX2 says.

// swapsFor lists the transpositions that gather x[perm[i]] into
// position i in place, applied in order. For an involution such as the
// bit reversal they are the pairs (i, perm[i]) with i < perm[i].
func swapsFor(perm []int) []int {
	n := len(perm)
	at := make([]int, n)    // at[i]: the input index now at position i
	where := make([]int, n) // where[v]: the position now holding input v
	for i := range at {
		at[i], where[i] = i, i
	}
	var swaps []int
	for i, v := range perm {
		if j := where[v]; j != i {
			swaps = append(swaps, i, j)
			a := at[i]
			at[i], at[j] = v, a
			where[v], where[a] = i, j
		}
	}
	return swaps
}

// refTransform is the in-place transform of x: transpositions, every
// pass in place, then the 1/n.
func refTransform(p *plan, x []complex128, inverse bool) {
	swaps := swapsFor(p.perm)
	for k := 0; k < len(swaps); k += 2 {
		i, j := swaps[k], swaps[k+1]
		x[i], x[j] = x[j], x[i]
	}
	for si := range p.stages {
		st := &p.stages[si]
		tw := st.table(inverse)
		switch {
		case st.kind == radix3:
			radix3Pass(x, tw)
		case st.kind == radix2:
			radix2Pass(x, tw, st.size)
		case st.size == 4:
			base4Pass(x, tw)
		default:
			radix4Pass(x, tw, st.size)
		}
	}
	if inverse {
		refScale(x, x, 1/float64(p.n))
	}
}

// refScale is scaleInto's Go loop.
func refScale(dst, src []complex128, s float64) {
	for i, v := range src {
		dst[i] = complex(real(v)*s, imag(v)*s)
	}
}

// refStripPass transforms the nb columns of the h-row strip at src (row
// y at src[y*stride:]) in place: rows perm[i] copied into scratch row i,
// every pass in place on the scratch, then each row copied (or scaled)
// back.
func refStripPass(p *plan, src []complex128, stride, nb int, inverse bool) {
	h := p.n
	buf := make([]complex128, nb*h)
	for i, y := range p.perm {
		copy(buf[i*nb:i*nb+nb], src[y*stride:])
	}
	for si := range p.stages {
		st := &p.stages[si]
		tw := st.table(inverse)
		switch {
		case st.kind == radix3:
			radix3Rows(buf, nb, tw)
		case st.kind == radix2:
			radix2Rows(buf, nb, tw, st.size)
		case st.size == 4:
			base4Rows(buf, nb, tw)
		default:
			radix4Rows(buf, nb, tw, st.size)
		}
	}
	for y := 0; y < h; y++ {
		if inverse {
			refScale(src[y*stride:y*stride+nb], buf[y*nb:y*nb+nb], 1/float64(h))
		} else {
			copy(src[y*stride:y*stride+nb], buf[y*nb:])
		}
	}
}

// withNaNs returns x with k of its parts, at random, made NaN.
func withNaNs(rng *rand.Rand, x []complex128, k int) []complex128 {
	for i := 0; i < k && len(x) > 0; i++ {
		j := rng.Intn(len(x))
		if rng.Intn(2) == 0 {
			x[j] = complex(math.NaN(), imag(x[j]))
		} else {
			x[j] = complex(real(x[j]), math.NaN())
		}
	}
	return x
}

// vectorPaths is the useAVX2 settings a test runs: the Go loops, and the
// twins where the CPU has them.
func vectorPaths() []bool {
	if useAVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

// TestFusedTransformsMatchReference holds the fused in-row transform,
// the packed real-pair transform and the fused column strip to the
// references at every plan length 2…1024, both directions, with the Go
// loops and with the twins: strips 1–16 columns wide inside rows of a
// wider stride, inputs carrying ±0, subnormals, overflowing magnitudes,
// ±Inf and (every other round) NaNs. Every output carries the
// reference's bits; a NaN only has to be a NaN. The strip's neighbour
// columns must come out untouched.
func TestFusedTransformsMatchReference(t *testing.T) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	rng := rand.New(rand.NewSource(42))
	for _, vec := range vectorPaths() {
		useAVX2 = vec
		for _, n := range allSizes {
			p := planFor(n)
			for round, inverse := range []bool{false, true, false, true} {
				nans := 2 * (round / 2)
				x := withNaNs(rng, hostileData(rng, n, true), nans)
				want := append([]complex128(nil), x...)
				refTransform(p, want, inverse)
				got := append([]complex128(nil), x...)
				p.transformWith(got, got, make([]complex128, n), inverse)
				if i := firstDiff(got, want); i >= 0 {
					t.Fatalf("avx2=%v n=%d inverse=%v: row element %d: fused %v, reference %v", vec, n, inverse, i, got[i], want[i])
				}

				re, im := reals(x), reals(hostileData(rng, n, true))
				want = make([]complex128, n)
				for j := range want {
					want[j] = complex(re[j], im[j])
				}
				refTransform(p, want, false)
				got = make([]complex128, n)
				p.transformPair(got, re, im)
				if i := firstDiff(got, want); i >= 0 {
					t.Fatalf("avx2=%v n=%d: packed pair element %d: fused %v, reference %v", vec, n, i, got[i], want[i])
				}

				for nb := 1; nb <= colStrip; nb++ {
					if n > 256 && nb%5 != 1 {
						continue // the long plans at widths 1, 6, 11 and 16
					}
					stride := nb + 1 + rng.Intn(5)
					data := withNaNs(rng, hostileData(rng, n*stride, true), nans)
					want := append([]complex128(nil), data...)
					refStripPass(p, want[1:], stride, nb, inverse)
					got := append([]complex128(nil), data...)
					m := &grid.CMat{H: n, W: stride, Data: got}
					p.stripPass(m, 1, nb, inverse, make([]complex128, colStrip*n))
					if i := firstDiff(got, want); i >= 0 {
						t.Fatalf("avx2=%v n=%d inverse=%v nb=%d stride=%d: strip element (%d, %d): fused %v, reference %v",
							vec, n, inverse, nb, stride, i/stride, i%stride, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestPackedInverseRowMatchesReference holds the real-output inverse's
// row step — the band of the packed Hermitian row written into a zero
// row, gathered by the first pass and stored by the last into the
// scratch row, scaling — to the packed row built by the test and run
// through the reference transform, at every plan length 2…1024, every band half-width class
// and for a lone row (no partner, G_{y+1} zero), with the twins and
// with the Go loops.
func TestPackedInverseRowMatchesReference(t *testing.T) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	rng := rand.New(rand.NewSource(4244))
	for _, vec := range vectorPaths() {
		useAVX2 = vec
		for _, w := range allSizes {
			p := planFor(w)
			for _, b := range []int{0, 1, w / 4, (w - 1) / 2} {
				x1 := max(w-b, b+1)
				for _, lone := range []bool{false, true} {
					g0 := withNaNs(rng, hostileData(rng, w, true), 1)
					var g1 []complex128
					if !lone {
						g1 = hostileData(rng, w, true)
					}
					want := make([]complex128, w)
					for x := 0; x <= b; x++ {
						u, v := g0[x], at(g1, x)
						want[x] = complex(real(u)-imag(v), imag(u)+real(v))
					}
					for x := x1; x < w; x++ {
						u, v := g0[w-x], at(g1, w-x)
						want[x] = complex(real(u)+imag(v), real(v)-imag(u))
					}
					refTransform(p, want, true)
					z, got := make([]complex128, w), make([]complex128, w)
					packBand(z, g0, g1, b, x1)
					p.transformWith(got, z, got, true)
					if i := firstDiff(got, want); i >= 0 {
						t.Fatalf("avx2=%v w=%d b=%d lone=%v: element %d: fused %v, reference %v", vec, w, b, lone, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// fusedCase is one run of a fused first or last pass: the plan stage it
// runs, the source a gather reads or the destination a store writes
// (src, its strip rows stride apart), the
// scratch a gather writes and a store reads (x, nb columns wide), and
// the scaling of a store. alias makes an in-row store write x itself.
type fusedCase struct {
	p      *plan
	tw     []complex128
	nb     int
	stride int
	src, x []complex128
	s      float64
	scaled bool
	alias  bool
}

// fusedTwin pairs a gathering first pass or a storing last pass with
// its vector twin.
type fusedTwin struct {
	name  string
	strip bool
	store bool // a last pass, whose in-row form may store into its scratch
	// stage returns the stage of p the loop runs, or nil.
	stage       func(p *plan) *stage
	goLoop, vec func(c *fusedCase)
}

// firstOf and lastOf return the first and last stage of a plan if it
// has the kind the loop serves.
func firstOf(kind stageKind) func(p *plan) *stage {
	return func(p *plan) *stage {
		if len(p.stages) > 0 && p.stages[0].kind == kind && p.stages[0].size <= 4 {
			return &p.stages[0]
		}
		return nil
	}
}

func lastOf(kind stageKind) func(p *plan) *stage {
	return func(p *plan) *stage {
		if k := len(p.stages) - 1; k >= 0 && p.stages[k].kind == kind && (kind == radix2 || p.stages[k].size > 4) {
			return &p.stages[k]
		}
		return nil
	}
}

// dst is the destination of an in-row store.
func (c *fusedCase) dst() []complex128 {
	if c.alias {
		return c.x
	}
	return c.src
}

var fusedTwins = []fusedTwin{
	{"base4Gather", false, false, firstOf(radix4),
		func(c *fusedCase) { base4Gather(c.x, c.src, c.p.perm, c.tw) },
		func(c *fusedCase) { base4GatherAVX2(c.x, c.src, c.p.perm, c.tw) }},
	{"radix3Gather", false, false, firstOf(radix3),
		func(c *fusedCase) { radix3Gather(c.x, c.src, c.p.perm, c.tw) },
		func(c *fusedCase) { radix3GatherAVX2(c.x, c.src, c.p.perm, c.tw) }},
	{"radix4Store", false, true, lastOf(radix4),
		func(c *fusedCase) { radix4Store(c.dst(), c.x, c.tw, c.s, c.scaled) },
		func(c *fusedCase) { radix4StoreAVX2(c.dst(), c.x, c.tw, c.s, c.scaled) }},
	{"radix2Store", false, true, lastOf(radix2),
		func(c *fusedCase) { radix2Store(c.dst(), c.x, c.tw, c.s, c.scaled) },
		func(c *fusedCase) { radix2StoreAVX2(c.dst(), c.x, c.tw, c.s, c.scaled) }},
	{"base4GatherRows", true, false, firstOf(radix4),
		func(c *fusedCase) { base4GatherRows(c.x, c.nb, c.src, c.stride, c.p.perm, c.tw) },
		func(c *fusedCase) { base4GatherRowsAVX2(c.x, c.nb, c.src, c.stride, c.p.perm, c.tw) }},
	{"radix3GatherRows", true, false, firstOf(radix3),
		func(c *fusedCase) { radix3GatherRows(c.x, c.nb, c.src, c.stride, c.p.perm, c.tw) },
		func(c *fusedCase) { radix3GatherRowsAVX2(c.x, c.nb, c.src, c.stride, c.p.perm, c.tw) }},
	{"radix4StoreRows", true, true, lastOf(radix4),
		func(c *fusedCase) { radix4StoreRows(c.src, c.stride, c.x, c.nb, c.tw, c.s, c.scaled) },
		func(c *fusedCase) { radix4StoreRowsAVX2(c.src, c.stride, c.x, c.nb, c.tw, c.s, c.scaled) }},
	{"radix2StoreRows", true, true, lastOf(radix2),
		func(c *fusedCase) { radix2StoreRows(c.src, c.stride, c.x, c.nb, c.tw, c.s, c.scaled) },
		func(c *fusedCase) { radix2StoreRowsAVX2(c.src, c.stride, c.x, c.nb, c.tw, c.s, c.scaled) }},
}

// newFusedCase lays out a case for the n-point plan: x holds nb·n
// values and src n rows of stride values (one row of n for the in-row
// loops, stride = nb = 1), all drawn by draw.
func newFusedCase(p *plan, st *stage, nb, stride int, inverse bool, draw func(k int) []complex128) *fusedCase {
	n := p.n
	c := &fusedCase{p: p, tw: st.table(inverse), nb: nb, stride: stride, s: 1 / float64(n), scaled: inverse}
	c.x = draw(nb * n)
	c.src = draw((n-1)*stride + nb)
	return c
}

// clone copies the buffers a loop writes.
func (c *fusedCase) clone() *fusedCase {
	d := *c
	d.x = append([]complex128(nil), c.x...)
	d.src = append([]complex128(nil), c.src...)
	return &d
}

// checkFused runs tw's two loops on copies of c and reports the first
// element, of the scratch or of the source, where they differ.
func checkFused(t *testing.T, tw fusedTwin, c *fusedCase, what string) {
	t.Helper()
	want, got := c.clone(), c.clone()
	tw.goLoop(want)
	tw.vec(got)
	if i := firstDiff(got.x, want.x); i >= 0 {
		t.Fatalf("%s %s: scratch element %d: vector %v, Go %v", tw.name, what, i, got.x[i], want.x[i])
	}
	if i := firstDiff(got.src, want.src); i >= 0 {
		t.Fatalf("%s %s: source element %d: vector %v, Go %v", tw.name, what, i, got.src[i], want.src[i])
	}
}

// fusedStages lists the plans of allSizes with the stage tw runs.
func fusedStages(tw fusedTwin) []planStage {
	var out []planStage
	for _, n := range allSizes {
		if st := tw.stage(planFor(n)); st != nil {
			out = append(out, planStage{n, st})
		}
	}
	return out
}

// TestFusedTwinsBitIdentical runs each gathering first pass and storing
// last pass against its Go loop at every plan length 2…1024 that has
// the stage, both directions (a store scales in the inverse one),
// strip widths 1–16 inside a wider stride, and in-row stores into a
// separate row and into their own scratch. Inputs carry ±0, subnormals,
// overflowing magnitudes, ±Inf and, every other round, NaNs; every
// output must carry the Go loop's bits, a NaN only its NaN-ness.
func TestFusedTwinsBitIdentical(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(4242))
	for _, tw := range fusedTwins {
		stages := fusedStages(tw)
		if len(stages) == 0 {
			t.Errorf("%s: no plan up to 1024 points runs it", tw.name)
		}
		for _, ps := range stages {
			p := planFor(ps.n)
			for round, inverse := range []bool{false, true, false, true} {
				draw := func(k int) []complex128 { return withNaNs(rng, hostileData(rng, k, true), 2*(round/2)) }
				if !tw.strip {
					aliases := []bool{false}
					if tw.store {
						aliases = append(aliases, true)
					}
					for _, alias := range aliases {
						c := newFusedCase(p, ps.st, 1, 1, inverse, draw)
						c.alias = alias
						checkFused(t, tw, c, fmt.Sprintf("n=%d inverse=%v alias=%v round=%d", ps.n, inverse, alias, round))
					}
					continue
				}
				for nb := 1; nb <= colStrip; nb++ {
					stride := nb + rng.Intn(6)
					c := newFusedCase(p, ps.st, nb, stride, inverse, draw)
					checkFused(t, tw, c, fmt.Sprintf("n=%d inverse=%v nb=%d stride=%d round=%d", ps.n, inverse, nb, stride, round))
				}
			}
		}
	}
}
