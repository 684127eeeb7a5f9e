package grid

import (
	"math"
	"math/rand"
	"testing"
)

func randCMat(rng *rand.Rand, h, w int) *CMat {
	m := NewCMat(h, w)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

func TestCMatBasics(t *testing.T) {
	m := NewCMat(2, 3)
	m.Set(1, 2, 3+4i)
	if m.Row(1)[2] != 3+4i {
		t.Fatalf("At=%v", m.Row(1)[2])
	}
	if m.Row(1)[2] != 3+4i {
		t.Fatal("Row mismatch")
	}
	c := m.Clone()
	c.Set(0, 0, 1)
	if m.Row(0)[0] != 0 {
		t.Fatal("clone shares storage")
	}
}

func TestCMatScale(t *testing.T) {
	a := NewCMat(1, 2)
	a.Data[0], a.Data[1] = 2+2i, 6i
	a.Scale(1i)
	if a.Data[0] != -2+2i || a.Data[1] != -6 {
		t.Fatalf("Scale got %v", a.Data)
	}
}

func TestCMatAlmostEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randCMat(rng, 3, 3)
	b := a.Clone()
	b.Data[0] += complex(1e-9, 0)
	if !a.AlmostEqual(b, 1e-8) {
		t.Fatal("should be almost equal")
	}
	if a.AlmostEqual(b, 1e-10) {
		t.Fatal("should differ at 1e-10")
	}
}

func TestCMatMaxAbs(t *testing.T) {
	m := NewCMat(1, 2)
	m.Data[0] = 3 + 4i
	if math.Abs(m.MaxAbs()-5) > 1e-12 {
		t.Fatalf("MaxAbs=%v want 5", m.MaxAbs())
	}
}
