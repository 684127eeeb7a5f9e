package litho

import (
	"math"
	"math/big"
)

// Sigmoid is the logistic function 1/(1+e^(−x)) of the relaxed resist and
// of the pixel solvers' mask parameterisation. It is exactly 1 above 40
// and exactly 0 below −40, where 1/(1+e^(−x)) rounds to within an ulp of
// those values anyway; NaN propagates.
//
// Both per-pixel sweeps of a descent iteration (the mask and the resist)
// call it once per pixel, so the exponential is the table-driven one of
// expSmall rather than math.Exp: it only ever sees |x| ≤ 40, so it needs
// no overflow, underflow or special-value handling.
func Sigmoid(x float64) float64 {
	switch {
	case x > 40:
		return 1
	case x < -40:
		return 0
	}
	return 1 / (1 + expSmall(-x))
}

// Sigmoids sets dst[j] = Sigmoid(a·x[j]) for every j < len(x): the
// sweep of the pixel solvers' mask M = σ(slope·θ). dst must be at least
// as long as x.
func Sigmoids(dst, x []float64, a float64) {
	j := 0
	if useAVX2 {
		j = len(x) &^ 3
		sigmoidsAVX2(dst[:j], x[:j], a)
	}
	for ; j < len(x); j++ {
		dst[j] = Sigmoid(a * x[j])
	}
}

// The exponential of Sigmoid follows the table scheme of the exp of musl
// libc and ARM optimized-routines (Arm Limited, 2018; MIT licence), with
// their constants for a 128-entry table and a degree-5 polynomial:
//
//	e^x = 2^(k/N) · e^r,   k = round(x·N/ln2),   r = x − k·ln2/N,   |r| ≤ ln2/2N
//
// with N = 128. k is rounded by adding the shift 1.5·2^52, which leaves k
// in the low mantissa bits of kd; its top bits scale the table entry's
// exponent and its low seven bits pick the entry. 2^(j/N) is s_j·(1 + tail)
// with s_j the nearest float64, and e^r − 1 is the polynomial, so the
// result is scale + scale·(tail + poly(r)) with the rounding of s_j
// carried in tail. TestSigmoidAccuracy holds it within 1 ulp of a 300-bit
// reference.
const (
	expBits   = 7
	expN      = 1 << expBits
	invLn2N   = 0x1.71547652b82fep0 * expN
	expShift  = 0x1.8p52
	negLn2hiN = -0x1.62e42fefa0000p-8
	negLn2loN = -0x1.cf79abc9e3b3ap-47
	expC2     = 0x1.ffffffffffdbdp-2
	expC3     = 0x1.555555555543cp-3
	expC4     = 0x1.55555cf172b91p-5
	expC5     = 0x1.1111167a4d017p-7
)

// expTab holds, for j = 0…N−1, the bits of tail_j = (2^(j/N) − s_j)/s_j at
// 2j and bits(s_j) − j<<45 at 2j+1, s_j = float64(2^(j/N)): the offset
// cancels the low bits of k that ki<<45 adds to the exponent field.
var expTab = expTable()

// expTable derives the table from 2^(1/N) at 256 bits — seven square
// roots of 2 — and its powers, each rounded once to float64.
func expTable() (t [2 * expN]uint64) {
	const prec = 256
	root := new(big.Float).SetPrec(prec).SetInt64(2)
	for i := 0; i < expBits; i++ {
		root.Sqrt(root)
	}
	p := new(big.Float).SetPrec(prec).SetInt64(1)
	d := new(big.Float).SetPrec(prec)
	for j := uint64(0); j < expN; j++ {
		s, _ := p.Float64()
		d.Sub(p, new(big.Float).SetFloat64(s))
		d.Quo(d, new(big.Float).SetFloat64(s))
		tail, _ := d.Float64()
		t[2*j] = math.Float64bits(tail)
		t[2*j+1] = math.Float64bits(s) - j<<(52-expBits)
		p.Mul(p, root)
	}
	return t
}

// expSmall returns e^x for |x| ≤ 40 (see the constants above), and NaN
// for NaN. Near |x| = 708 the result leaves the normal range, which the
// full exp treats as special cases that Sigmoid never reaches.
func expSmall(x float64) float64 {
	kd := x*invLn2N + expShift
	ki := math.Float64bits(kd)
	kd -= expShift
	r := x + kd*negLn2hiN + kd*negLn2loN
	idx := 2 * (ki % expN)
	tail := math.Float64frombits(expTab[idx])
	scale := math.Float64frombits(expTab[idx+1] + ki<<(52-expBits))
	r2 := r * r
	tmp := tail + r + r2*(expC2+r*expC3) + r2*r2*(expC4+r*expC5)
	return scale + scale*tmp
}

// vec4 is one float64 constant in the four lanes of a vector register,
// the memory operand the twins of sweeps_amd64.s read it from.
type vec4 [4]float64

func splat(v float64) vec4 { return vec4{v, v, v, v} }

// sigmoidK holds the constants of the vector sigmoid, in the order of
// the K_ offsets of sweeps_amd64.s: expSmall's, then 1, the ±40 clamps,
// the sign bit and the table-index mask (as bits).
var sigmoidK = [...]vec4{
	splat(invLn2N), splat(expShift), splat(negLn2hiN), splat(negLn2loN),
	splat(expC2), splat(expC3), splat(expC4), splat(expC5),
	splat(1), splat(40), splat(-40),
	splat(math.Copysign(0, -1)), splat(math.Float64frombits(expN - 1)),
}
