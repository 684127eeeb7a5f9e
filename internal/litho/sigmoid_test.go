package litho

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

const refPrec = 300

// refCoef are the Taylor coefficients 1/n! of e^y for n = 0…refTerms−1 at
// refPrec bits: for |y| ≤ 40/2^12 the first term left out is below
// 2^-420.
const refTerms = 40

var refCoef = func() (c [refTerms]*big.Float) {
	c[0] = new(big.Float).SetPrec(refPrec).SetInt64(1)
	for n := 1; n < refTerms; n++ {
		c[n] = new(big.Float).SetPrec(refPrec).Quo(c[n-1], new(big.Float).SetInt64(int64(n)))
	}
	return c
}()

// refExp returns e^x, |x| ≤ 40, to about 290 bits: the Taylor series of
// x/2^12, squared twelve times.
func refExp(x float64) *big.Float {
	const halvings = 12
	y := new(big.Float).SetPrec(refPrec).SetFloat64(x)
	y.SetMantExp(y, -halvings)
	sum := new(big.Float).SetPrec(refPrec).Set(refCoef[refTerms-1])
	for n := refTerms - 2; n >= 0; n-- {
		sum.Mul(sum, y)
		sum.Add(sum, refCoef[n])
	}
	for i := 0; i < halvings; i++ {
		sum.Mul(sum, sum)
	}
	return sum
}

// ulpDist is the number of representable float64 values between a and b,
// which must be finite and positive.
func ulpDist(a, b float64) uint64 {
	ia, ib := math.Float64bits(a), math.Float64bits(b)
	if ia > ib {
		return ia - ib
	}
	return ib - ia
}

func TestSigmoidAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	xs := make([]float64, 0, 64000)
	for i := 0; i < 20000; i++ {
		xs = append(xs, -40+80*rng.Float64())
	}
	// Where r is 0 (the table entry alone) and where the rounding of k
	// flips (|r| at its largest), one ulp either side.
	ln2 := math.Ln2 / expN
	for k := -7387; k <= 7387; k++ {
		for _, x := range []float64{float64(k) * ln2, (float64(k) + 0.5) * ln2} {
			xs = append(xs, math.Nextafter(x, math.Inf(-1)), x, math.Nextafter(x, math.Inf(1)))
		}
	}
	worst, at := uint64(0), 0.0
	for _, x := range xs {
		if math.Abs(x) > 40 {
			continue
		}
		want, _ := refExp(x).Float64()
		if d := ulpDist(expSmall(x), want); d > worst {
			worst, at = d, x
		}
	}
	if worst > 1 {
		t.Fatalf("expSmall(%v) = %v is %d ulp from e^x = %v", at, expSmall(at), worst, math.Exp(at))
	}
	t.Logf("%d points, worst %d ulp", len(xs), worst)
}

// TestSigmoidTable re-derives every table entry from 2^(j/N) =
// e^(j·ln2/N), with ln 2 = Σ 1/(n·2^n) — a route that shares nothing with
// the square roots the table is built from.
func TestSigmoidTable(t *testing.T) {
	ln2 := new(big.Float).SetPrec(refPrec)
	for n := int64(1); n <= refPrec+8; n++ {
		term := new(big.Float).SetPrec(refPrec).SetInt64(n)
		term.SetMantExp(term, int(n))
		ln2.Add(ln2, term.Quo(big.NewFloat(1).SetPrec(refPrec), term))
	}
	for j := uint64(0); j < expN; j++ {
		// e^(j·ln2/N) through refExp needs x exactly, which a float64
		// cannot hold: split it as a float64 head plus a small remainder
		// taken through its own short series.
		x := new(big.Float).SetPrec(refPrec).Mul(ln2, new(big.Float).SetPrec(refPrec).SetInt64(int64(j)))
		x.SetMantExp(x, -expBits)
		head, _ := x.Float64()
		rest := new(big.Float).SetPrec(refPrec).Sub(x, new(big.Float).SetFloat64(head))
		// e^rest = 1 + rest + rest²/2 + …, |rest| < 2^-53.
		er := new(big.Float).SetPrec(refPrec).SetInt64(1)
		term := new(big.Float).SetPrec(refPrec).SetInt64(1)
		for n := int64(1); n < 20; n++ {
			term.Mul(term, rest)
			term.Quo(term, new(big.Float).SetPrec(refPrec).SetInt64(n))
			er.Add(er, term)
		}
		v := refExp(head)
		v.Mul(v, er)
		s, _ := v.Float64()
		tail, _ := new(big.Float).SetPrec(refPrec).Quo(v.Sub(v, big.NewFloat(s)), big.NewFloat(s)).Float64()
		if got, want := expTab[2*j], math.Float64bits(tail); got != want {
			t.Errorf("tail %d: %#x (%g), want %#x (%g)", j, got, math.Float64frombits(got), want, tail)
		}
		if got, want := expTab[2*j+1], math.Float64bits(s)-j<<(52-expBits); got != want {
			t.Errorf("scale %d: %#x, want %#x (s = %v)", j, got, want, s)
		}
	}
}

// TestSigmoidEdges pins the inputs at and beyond the clamps, the signed
// zeros and the subnormal-adjacent ones to the bits of the math.Exp form.
func TestSigmoidEdges(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 40, -40, 0, math.Copysign(0, -1), 1e-300, -1e-300, 709, -745} {
		got, want := Sigmoid(x), 1/(1+math.Exp(-x))
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Errorf("Sigmoid(%v) = %v, want NaN", x, got)
			}
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Sigmoid(%v) = %v (%#x), want %v (%#x)", x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}
