package grid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDownsampleBlockAverage(t *testing.T) {
	m := matOf(2, 4, []float64{
		1, 3, 5, 7,
		5, 7, 9, 11,
	})
	d := m.Downsample(2)
	if d.H != 1 || d.W != 2 {
		t.Fatalf("shape %dx%d", d.H, d.W)
	}
	if d.Data[0] != 4 || d.Data[1] != 8 {
		t.Fatalf("got %v", d.Data)
	}
}

func TestDownsampleFactorOneClones(t *testing.T) {
	m := matOf(1, 2, []float64{1, 2})
	d := m.Downsample(1)
	if !d.Equal(m) {
		t.Fatal("factor 1 must be identity")
	}
	d.Data[0] = 9
	if m.Data[0] == 9 {
		t.Fatal("factor 1 must not alias")
	}
}

func TestDownsamplePanicsOnIndivisible(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMat(3, 4).Downsample(2)
}

func TestUpsampleBilinearConstant(t *testing.T) {
	m := NewMat(3, 3).Fill(2.5)
	u := m.UpsampleBilinear(4)
	for i, v := range u.Data {
		if math.Abs(v-2.5) > 1e-12 {
			t.Fatalf("bilinear of constant not constant at %d: %v", i, v)
		}
	}
}

// Property: block-average downsampling preserves total mass (scaled by s²).
func TestQuickDownsampleMass(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randMat(r, 8, 8)
		d := m.Downsample(2)
		return math.Abs(d.Sum()*4-m.Sum()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Downsample undoes nearest-neighbour replication (the
// average of a constant block equals the constant).
func TestQuickUpDownRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randMat(r, 6, 6)
		up := NewMat(12, 12)
		for i := range up.Data {
			up.Data[i] = m.At(i/12/2, i%12/2)
		}
		return up.Downsample(2).AlmostEqual(m, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: bilinear upsampling preserves the value range (no overshoot).
func TestQuickBilinearRange(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randMat(r, 5, 5).Clamp(0, 1)
		u := m.UpsampleBilinear(3)
		for _, v := range u.Data {
			if v < -1e-12 || v > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTranspose(t *testing.T) {
	m := matOf(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.Transpose()
	if tr.H != 3 || tr.W != 2 {
		t.Fatalf("shape %dx%d", tr.H, tr.W)
	}
	if tr.At(0, 1) != 4 || tr.At(2, 0) != 3 {
		t.Fatalf("got %v", tr.Data)
	}
	if !m.Transpose().Transpose().Equal(m) {
		t.Fatal("double transpose must be identity")
	}
}
