package filter

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mgsilt/internal/grid"
)

func TestGaussianKernelNormalised(t *testing.T) {
	for _, sigma := range []float64{0.5, 1, 2.5} {
		k := GaussianKernel1D(sigma)
		if len(k)%2 != 1 {
			t.Fatalf("kernel length must be odd, got %d", len(k))
		}
		sum := 0.0
		for _, v := range k {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("sigma=%v: kernel sum %v", sigma, sum)
		}
		// Symmetry.
		for i := 0; i < len(k)/2; i++ {
			if math.Abs(k[i]-k[len(k)-1-i]) > 1e-15 {
				t.Fatalf("kernel asymmetric at %d", i)
			}
		}
	}
}

func TestGaussianKernelPanicsOnBadSigma(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GaussianKernel1D(0)
}

func TestReflectIndex(t *testing.T) {
	cases := []struct{ i, n, want int }{
		{0, 5, 0}, {4, 5, 4}, {-1, 5, 1}, {-2, 5, 2}, {5, 5, 3}, {6, 5, 2},
		{0, 1, 0}, {-3, 1, 0},
	}
	for _, c := range cases {
		if got := reflect(c.i, c.n); got != c.want {
			t.Fatalf("reflect(%d,%d)=%d want %d", c.i, c.n, got, c.want)
		}
	}
}

func TestGaussianPreservesConstant(t *testing.T) {
	m := grid.NewMat(16, 16)
	for i := range m.Data {
		m.Data[i] = 3
	}
	out := Gaussian(m, 1.5)
	if !out.AlmostEqual(m, 1e-10) {
		t.Fatal("Gaussian must preserve constants with mirror boundaries")
	}
}

// Property: Gaussian smoothing preserves total mass approximately (mirror
// boundaries make it exact for constants, near-exact in general) and
// reduces the maximum.
func TestQuickGaussianMassAndMax(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := grid.NewMat(16, 16)
		for i := range m.Data {
			m.Data[i] = rng.Float64()
		}
		out := Gaussian(m, 1)
		if out.MaxAbs() > m.MaxAbs()+1e-12 {
			return false
		}
		// Mirror boundaries conserve mass only approximately; allow 5%.
		return math.Abs(out.Sum()-m.Sum()) < 0.05*math.Abs(m.Sum())+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGaussianSmoothsStep(t *testing.T) {
	m := grid.NewMat(1, 32)
	for x := 16; x < 32; x++ {
		m.Set(0, x, 1)
	}
	out := Gaussian(m, 2)
	// The step edge must now be graded: value at the edge ~0.5.
	if v := out.At(0, 16); v < 0.3 || v > 0.7 {
		t.Fatalf("edge value %v, want ~0.5", v)
	}
	// Far from the edge values are unchanged.
	if out.At(0, 0) > 0.01 || out.At(0, 31) < 0.99 {
		t.Fatalf("far values changed: %v %v", out.At(0, 0), out.At(0, 31))
	}
}

func TestGaussianIteratedStronger(t *testing.T) {
	m := grid.NewMat(1, 64)
	m.Set(0, 32, 1)
	one := Gaussian(m, 1)
	three := GaussianIterated(m, 1, 3)
	if three.MaxAbs() >= one.MaxAbs() {
		t.Fatal("iterated smoothing must spread the impulse further")
	}
}

func square(h, w, y0, x0, side int) *grid.Mat {
	m := grid.NewMat(h, w)
	for y := y0; y < y0+side; y++ {
		for x := x0; x < x0+side; x++ {
			m.Set(y, x, 1)
		}
	}
	return m
}

func TestErodeDilateSquare(t *testing.T) {
	m := square(16, 16, 4, 4, 6)
	er := morph(m, 1, true)
	if er.Sum() != 16 { // 6x6 erodes to 4x4
		t.Fatalf("erode sum %v want 16", er.Sum())
	}
	di := morph(m, 1, false)
	if di.Sum() != 64 { // 6x6 dilates to 8x8
		t.Fatalf("dilate sum %v want 64", di.Sum())
	}
}

func TestOpenRemovesThinFeature(t *testing.T) {
	// A 1-pixel-wide line disappears under opening with r=1.
	m := grid.NewMat(10, 10)
	for x := 2; x < 8; x++ {
		m.Set(5, x, 1)
	}
	if got := Open(m, 1).Sum(); got != 0 {
		t.Fatalf("open kept %v pixels of a 1-wide line", got)
	}
	// A 4-wide block survives.
	b := square(12, 12, 3, 3, 4)
	if got := Open(b, 1).Sum(); got != 16 {
		t.Fatalf("open destroyed a 4x4 block: %v", got)
	}
}

func TestCloseFillsGap(t *testing.T) {
	// Two blocks separated by a 1-pixel gap merge under closing.
	m := grid.NewMat(10, 12)
	for y := 3; y < 7; y++ {
		for x := 2; x < 5; x++ {
			m.Set(y, x, 1)
		}
		for x := 6; x < 9; x++ {
			m.Set(y, x, 1)
		}
	}
	closed := Close(m, 1)
	for y := 3; y < 7; y++ {
		if closed.At(y, 5) != 1 {
			t.Fatalf("gap not filled at row %d", y)
		}
	}
}

// Property: erosion shrinks, dilation grows, and erode(dilate(x))
// contains x's opening-stable content.
func TestQuickMorphologyMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := grid.NewMat(12, 12)
		for i := range m.Data {
			if rng.Float64() < 0.4 {
				m.Data[i] = 1
			}
		}
		er := morph(m, 1, true)
		di := morph(m, 1, false)
		for i := range m.Data {
			if er.Data[i] > m.Data[i] || di.Data[i] < m.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGradientMagnitudeOfRamp(t *testing.T) {
	m := grid.NewMat(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			m.Set(y, x, float64(x))
		}
	}
	g := GradientMagnitude(m)
	// Interior gradient of a unit ramp is exactly 1.
	for y := 0; y < 8; y++ {
		for x := 1; x < 7; x++ {
			if math.Abs(g.At(y, x)-1) > 1e-12 {
				t.Fatalf("ramp gradient %v at %d,%d", g.At(y, x), y, x)
			}
		}
	}
}

func TestCurvatureOfPlaneIsZero(t *testing.T) {
	m := grid.NewMat(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			m.Set(y, x, 2*float64(x)+3*float64(y))
		}
	}
	c := Curvature(m)
	for y := 1; y < 7; y++ {
		for x := 1; x < 7; x++ {
			if math.Abs(c.At(y, x)) > 1e-9 {
				t.Fatalf("plane curvature %v at %d,%d", c.At(y, x), y, x)
			}
		}
	}
}

func TestCurvatureSignOfBump(t *testing.T) {
	// For φ = -(x²+y²) (a hump), the level sets are circles around the
	// origin; curvature of the distance-like field is negative.
	const n = 17
	m := grid.NewMat(n, n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			dx, dy := float64(x-n/2), float64(y-n/2)
			m.Set(y, x, -(dx*dx + dy*dy))
		}
	}
	c := Curvature(m)
	if c.At(n/2, n/2+4) >= 0 {
		t.Fatalf("expected negative curvature, got %v", c.At(n/2, n/2+4))
	}
}

func BenchmarkGaussian128(b *testing.B) {
	m := grid.NewMat(128, 128)
	for i := range m.Data {
		m.Data[i] = float64(i%5) / 5
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gaussian(m, 1.5)
	}
}
