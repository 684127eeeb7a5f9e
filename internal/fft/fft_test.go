package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"mgsilt/internal/grid"
)

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Fatalf("%d should be a power of two", n)
		}
	}
	for _, n := range []int{0, -2, 3, 6, 1000} {
		if IsPow2(n) {
			t.Fatalf("%d should not be a power of two", n)
		}
	}
}

// TestForwardPanicsOnNonPow2: a length that is neither 2^k nor 3·2^k
// has no plan.
func TestForwardPanicsOnNonPow2(t *testing.T) {
	for _, n := range []int{5, 9, 10, 18, 36, 80, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("n=%d: expected panic", n)
				}
			}()
			Forward(make([]complex128, n))
		}()
	}
}

func TestForwardDelta(t *testing.T) {
	// FFT of a delta at 0 is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	Forward(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("bin %d = %v, want 1", i, v)
		}
	}
}

func TestForwardKnownSinusoid(t *testing.T) {
	// x[n] = exp(2πi·k0·n/N) has a single spike of height N at bin k0.
	const n, k0 = 16, 3
	x := make([]complex128, n)
	for i := range x {
		ang := 2 * math.Pi * k0 * float64(i) / n
		x[i] = cmplx.Exp(complex(0, ang))
	}
	Forward(x)
	for i, v := range x {
		want := complex128(0)
		if i == k0 {
			want = n
		}
		if cmplx.Abs(v-want) > 1e-9 {
			t.Fatalf("bin %d = %v, want %v", i, v, want)
		}
	}
}

func TestRoundTrip1D(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 8, 64, 256} {
		x := randComplex(rng, n)
		orig := append([]complex128(nil), x...)
		Forward(x)
		Inverse(x)
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				t.Fatalf("n=%d: round trip mismatch at %d", n, i)
			}
		}
	}
}

// Property: linearity F(a·x + b·y) = a·F(x) + b·F(y).
func TestQuickLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 32
		x := randComplex(rng, n)
		y := randComplex(rng, n)
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		b := complex(rng.NormFloat64(), rng.NormFloat64())
		comb := make([]complex128, n)
		for i := range comb {
			comb[i] = a*x[i] + b*y[i]
		}
		Forward(comb)
		Forward(x)
		Forward(y)
		for i := range comb {
			if cmplx.Abs(comb[i]-(a*x[i]+b*y[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Parseval — Σ|x|² == (1/N)·Σ|X|².
func TestQuickParseval(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 64
		x := randComplex(rng, n)
		spatial := 0.0
		for _, v := range x {
			spatial += real(v)*real(v) + imag(v)*imag(v)
		}
		Forward(x)
		freq := 0.0
		for _, v := range x {
			freq += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(spatial-freq/n) < 1e-7*spatial
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip2D(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := grid.NewCMat(16, 32)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	orig := m.Clone()
	Forward2D(m)
	Inverse2D(m)
	if !m.AlmostEqual(orig, 1e-9) {
		t.Fatal("2-D round trip mismatch")
	}
}

func TestForward2DSeparability(t *testing.T) {
	// F2D of an outer product is the outer product of the 1-D FFTs.
	const n = 8
	rng := rand.New(rand.NewSource(3))
	u := randComplex(rng, n)
	v := randComplex(rng, n)
	m := grid.NewCMat(n, n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			m.Set(y, x, u[y]*v[x])
		}
	}
	Forward2D(m)
	fu := append([]complex128(nil), u...)
	fv := append([]complex128(nil), v...)
	Forward(fu)
	Forward(fv)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			if cmplx.Abs(m.Row(y)[x]-fu[y]*fv[x]) > 1e-8 {
				t.Fatalf("separability mismatch at %d,%d", y, x)
			}
		}
	}
}

func TestConvolutionTheorem(t *testing.T) {
	// IFFT(FFT(ker) ⊙ FFT(img)) must equal direct circular convolution.
	const n = 16
	rng := rand.New(rand.NewSource(4))
	img := grid.NewMat(n, n)
	ker := grid.NewMat(n, n)
	for i := range img.Data {
		img.Data[i] = rng.Float64()
	}
	// Small spatial kernel.
	ker.Set(0, 0, 0.5)
	ker.Set(0, 1, 0.25)
	ker.Set(1, 0, 0.25)
	ker.Set(n-1, n-1, -0.1)

	got, spec := ForwardReal(img), ForwardReal(ker)
	for i := range got.Data {
		got.Data[i] *= spec.Data[i]
	}
	Inverse2D(got)

	want := grid.NewMat(n, n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			sum := 0.0
			for ky := 0; ky < n; ky++ {
				for kx := 0; kx < n; kx++ {
					sum += ker.At(ky, kx) * img.At(((y-ky)%n+n)%n, ((x-kx)%n+n)%n)
				}
			}
			want.Set(y, x, sum)
		}
	}
	for i, v := range got.Data {
		if math.Abs(real(v)-want.Data[i]) > 1e-9 {
			t.Fatalf("convolution theorem violated at %d: %v, want %v", i, real(v), want.Data[i])
		}
	}
}

func TestFlipFreqMatchesSpatialReversal(t *testing.T) {
	// F(x[-n]) (circular) equals X[-k]: flipping the spectrum must match
	// transforming the circularly-reversed signal.
	const n = 8
	rng := rand.New(rand.NewSource(7))
	m := grid.NewMat(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	spec := ForwardReal(m)
	flipped := FlipFreq(spec)

	rev := grid.NewMat(n, n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			rev.Set(y, x, m.At((n-y)%n, (n-x)%n))
		}
	}
	want := ForwardReal(rev)
	if !flipped.AlmostEqual(want, 1e-9) {
		t.Fatal("FlipFreq does not match spatial reversal")
	}
}

func BenchmarkForward2D256(b *testing.B) {
	m := grid.NewCMat(256, 256)
	for i := range m.Data {
		m.Data[i] = complex(float64(i%7), 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Forward2D(m)
	}
}
