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

func TestForwardPanicsOnNonPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Forward(make([]complex128, 6))
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
			if cmplx.Abs(m.At(y, x)-fu[y]*fv[x]) > 1e-8 {
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

func TestQuadrantSwapInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := grid.NewCMat(8, 8)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	if !SwapQuadrants(SwapQuadrants(m.Clone())).AlmostEqual(m, 0) {
		t.Fatal("SwapQuadrants must be an involution")
	}
}

func TestToCenteredMovesDC(t *testing.T) {
	m := grid.NewCMat(8, 8)
	m.Set(0, 0, 42)
	c := SwapQuadrants(m.Clone())
	if c.At(4, 4) != 42 {
		t.Fatalf("DC not moved to centre: %v", c.At(4, 4))
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

func TestInterpolateCenteredIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := grid.NewCMat(8, 8)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	out := ResampleCentered(m, 8, 1)
	if !out.AlmostEqual(m, 0) {
		t.Fatal("s=1 must be the identity")
	}
}

func TestInterpolateCenteredDCAndGridPoints(t *testing.T) {
	m := grid.NewCMat(8, 8)
	m.Set(4, 4, 2) // DC in centre layout
	m.Set(4, 5, 1) // frequency (0, +1)
	out := ResampleCentered(m, 16, 2)
	if out.H != 16 || out.W != 16 {
		t.Fatalf("shape %dx%d", out.H, out.W)
	}
	// DC must be preserved exactly.
	if cmplx.Abs(out.At(8, 8)-2) > 1e-12 {
		t.Fatalf("DC=%v want 2", out.At(8, 8))
	}
	// Output frequency (0, +2) maps exactly onto source (0, +1).
	if cmplx.Abs(out.At(8, 10)-1) > 1e-12 {
		t.Fatalf("grid point=%v want 1", out.At(8, 10))
	}
	// Output frequency (0, +1) is halfway between source 2 and 1 → 1.5.
	if cmplx.Abs(out.At(8, 9)-1.5) > 1e-12 {
		t.Fatalf("midpoint=%v want 1.5", out.At(8, 9))
	}
}

func TestInterpolateCenteredSupportScales(t *testing.T) {
	// Support of diameter p must grow to about s·p.
	m := grid.NewCMat(16, 16)
	for y := 6; y < 10; y++ {
		for x := 6; x < 10; x++ {
			m.Set(y, x, 1)
		}
	}
	out := ResampleCentered(m, 32, 2)
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			if out.At(y, x) != 0 {
				dy, dx := y-16, x-16
				if dy < -5 || dy > 4 || dx < -5 || dx > 4 {
					t.Fatalf("energy leaked to %d,%d", y, x)
				}
			}
		}
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

func TestResampleCenteredValidation(t *testing.T) {
	square := grid.NewCMat(8, 8)
	for _, f := range []func(){
		func() { ResampleCentered(grid.NewCMat(4, 8), 8, 1) }, // non-square
		func() { ResampleCentered(square, 1, 1) },             // outSize too small
		func() { ResampleCentered(square, 8, 0) },             // zero stretch
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestResampleCenteredCropKeepsDC(t *testing.T) {
	// outSize < srcSize with stretch 1 takes the central crop.
	src := grid.NewCMat(16, 16)
	src.Set(8, 8, 5)  // DC
	src.Set(8, 9, 2)  // +1 bin
	src.Set(8, 15, 9) // high frequency, outside the crop
	out := ResampleCentered(src, 8, 1)
	if out.At(4, 4) != 5 || out.At(4, 5) != 2 {
		t.Fatalf("crop misaligned: DC=%v, +1=%v", out.At(4, 4), out.At(4, 5))
	}
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if (y != 4 || x < 4 || x > 5) && out.At(y, x) != 0 {
				t.Fatalf("unexpected energy at %d,%d", y, x)
			}
		}
	}
}
