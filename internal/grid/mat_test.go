package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMat(rng *rand.Rand, h, w int) *Mat {
	m := NewMat(h, w)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// matOf wraps a row-major literal as an h×w matrix.
func matOf(h, w int, data []float64) *Mat { return &Mat{H: h, W: w, Data: data} }

func TestNewMatZeroed(t *testing.T) {
	m := NewMat(3, 5)
	if m.H != 3 || m.W != 5 || len(m.Data) != 15 {
		t.Fatalf("unexpected shape: %v", m)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zero: %v", i, v)
		}
	}
}

func TestNewMatPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0x3 matrix")
		}
	}()
	NewMat(0, 3)
}

func TestAtSetRow(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatalf("At(1,2)=%v, want 7", m.At(1, 2))
	}
	if m.Row(1)[2] != 7 {
		t.Fatalf("Row(1)[2]=%v, want 7", m.Row(1)[2])
	}
	// Row must alias backing storage.
	m.Row(0)[0] = 3
	if m.At(0, 0) != 3 {
		t.Fatal("Row does not alias backing storage")
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randMat(rng, 4, 4)
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("clone shares storage with original")
	}
}

func TestArithmetic(t *testing.T) {
	a := matOf(1, 3, []float64{1, 2, 3})
	b := matOf(1, 3, []float64{4, 5, 6})
	diff := b.Clone().Sub(a)
	for i, v := range diff.Data {
		if v != 3 {
			t.Fatalf("Sub[%d]=%v want 3", i, v)
		}
	}
	sc := a.Clone().Scale(2)
	if sc.Data[2] != 6 {
		t.Fatalf("Scale: got %v", sc.Data)
	}
	as := a.Clone().AddScaled(b, 10)
	if as.Data[0] != 41 {
		t.Fatalf("AddScaled: got %v", as.Data)
	}
}

func TestAddPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape-mismatch panic")
		}
	}()
	NewMat(2, 2).AddScaled(NewMat(2, 3), 1)
}

func TestSumDotL2(t *testing.T) {
	a := matOf(2, 2, []float64{1, 2, 3, 4})
	b := matOf(2, 2, []float64{4, 3, 2, 1})
	if a.Sum() != 10 {
		t.Fatalf("Sum=%v", a.Sum())
	}
	if got := a.L2Diff(b); got != 9+1+1+9 {
		t.Fatalf("L2Diff=%v", got)
	}
	if a.L2Diff(a) != 0 {
		t.Fatal("L2Diff with self must be zero")
	}
}

func TestClampApplyMaxAbs(t *testing.T) {
	m := matOf(1, 4, []float64{-2, -0.5, 0.5, 2})
	m.Clamp(-1, 1)
	want := []float64{-1, -0.5, 0.5, 1}
	for i, v := range m.Data {
		if v != want[i] {
			t.Fatalf("Clamp[%d]=%v want %v", i, v, want[i])
		}
	}
	if matOf(1, 2, []float64{-3, 2}).MaxAbs() != 3 {
		t.Fatal("MaxAbs should consider negatives")
	}
}

func TestBinarize(t *testing.T) {
	m := matOf(1, 4, []float64{0.1, 0.5, 0.6, 0.9})
	b := m.Binarize(0.5)
	want := []float64{0, 0, 1, 1}
	for i, v := range b.Data {
		if v != want[i] {
			t.Fatalf("Binarize[%d]=%v want %v", i, v, want[i])
		}
	}
	if m.Data[0] != 0.1 {
		t.Fatal("Binarize must not mutate the receiver")
	}
	m.BinarizeInPlace(0.5)
	for i, v := range m.Data {
		if v != want[i] {
			t.Fatalf("BinarizeInPlace[%d]=%v want %v", i, v, want[i])
		}
	}
}

func TestCountAbove(t *testing.T) {
	m := matOf(1, 5, []float64{0, 0.2, 0.5, 0.7, 1})
	if got := m.CountAbove(0.5); got != 2 {
		t.Fatalf("CountAbove(0.5)=%d want 2", got)
	}
}

func TestCropPasteRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randMat(rng, 8, 10)
	c := m.Crop(2, 3, 4, 5)
	if c.H != 4 || c.W != 5 {
		t.Fatalf("crop shape %dx%d", c.H, c.W)
	}
	for y := 0; y < 4; y++ {
		for x := 0; x < 5; x++ {
			if c.At(y, x) != m.At(2+y, 3+x) {
				t.Fatalf("crop mismatch at %d,%d", y, x)
			}
		}
	}
	dst := NewMat(8, 10)
	dst.Paste(c, 2, 3)
	if dst.At(2, 3) != m.At(2, 3) || dst.At(5, 7) != m.At(5, 7) {
		t.Fatal("paste did not restore values")
	}
	if dst.At(0, 0) != 0 {
		t.Fatal("paste wrote outside rectangle")
	}
}

func TestCropPanicsOutOfBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected out-of-bounds panic")
		}
	}()
	NewMat(4, 4).Crop(2, 2, 3, 3)
}

// filled returns an h×w matrix with every element v.
func filled(h, w int, v float64) *Mat {
	m := NewMat(h, w)
	for i := range m.Data {
		m.Data[i] = v
	}
	return m
}

func TestPasteWeightedBlends(t *testing.T) {
	dst := filled(2, 2, 10)
	src := filled(2, 2, 20)
	w := filled(2, 2, 0.25)
	dst.PasteWeighted(src, w, 0, 0)
	for _, v := range dst.Data {
		if math.Abs(v-12.5) > 1e-12 {
			t.Fatalf("blend got %v want 12.5", v)
		}
	}
}

func TestAlmostEqual(t *testing.T) {
	a := filled(2, 2, 1)
	b := filled(2, 2, 1.0000001)
	if !a.AlmostEqual(b, 1e-6) {
		t.Fatal("should be almost equal")
	}
	if a.AlmostEqual(b, 1e-9) {
		t.Fatal("should not be almost equal at 1e-9")
	}
	if a.AlmostEqual(NewMat(2, 3), 1) {
		t.Fatal("different shapes must not compare equal")
	}
}

// Property: Crop∘Paste of disjoint content is the identity on the cropped
// region, for random rectangles.
func TestQuickCropPasteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		h, w := 4+r.Intn(12), 4+r.Intn(12)
		m := randMat(rng, h, w)
		ch, cw := 1+r.Intn(h-1), 1+r.Intn(w-1)
		y0, x0 := r.Intn(h-ch+1), r.Intn(w-cw+1)
		c := m.Crop(y0, x0, ch, cw)
		back := m.Clone().Paste(c, y0, x0)
		return back.Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: adding is commutative and Sub is its inverse.
func TestQuickAddSubInverse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randMat(r, 5, 7), randMat(r, 5, 7)
		ab := a.Clone().AddScaled(b, 1)
		ba := b.Clone().AddScaled(a, 1)
		if !ab.AlmostEqual(ba, 1e-12) {
			return false
		}
		return ab.Sub(b).AlmostEqual(a, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolRoundTrip(t *testing.T) {
	m := GetMat(4, 8)
	if m.H != 4 || m.W != 8 || len(m.Data) != 32 {
		t.Fatalf("pooled mat shape %dx%d", m.H, m.W)
	}
	m.Scale(7)
	PutMat(m)
	// A re-acquired matrix of the same size may carry prior contents;
	// shape bookkeeping must still be right (including a different
	// aspect with equal area).
	n := GetMat(8, 4)
	if n.H != 8 || n.W != 4 || len(n.Data) != 32 {
		t.Fatalf("re-acquired shape %dx%d/%d", n.H, n.W, len(n.Data))
	}
	PutMat(n)
	PutMat(nil) // must not panic

	c := GetCMat(2, 2)
	if c.H != 2 || c.W != 2 {
		t.Fatalf("pooled cmat shape %dx%d", c.H, c.W)
	}
	PutCMat(c)
	PutCMat(nil)
}
