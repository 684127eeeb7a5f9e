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

// refDownsample is Downsample's block loop, kept as the reference for
// the sum order both restrictions must keep.
func refDownsample(m *Mat, s int) *Mat {
	out := NewMat(m.H/s, m.W/s)
	inv := 1.0 / float64(s*s)
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			sum := 0.0
			for dy := 0; dy < s; dy++ {
				for dx := 0; dx < s; dx++ {
					sum += m.At(y*s+dy, x*s+dx)
				}
			}
			out.Set(y, x, sum*inv)
		}
	}
	return out
}

func bitsEqual(a, b *Mat) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestCropDownsampleBitIdentical holds the fused window restriction to
// Crop then Downsample, bit for bit, on windows inside the clip and on
// every edge of it, with values whose sums depend on their order.
func TestCropDownsampleBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMat(48, 40)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
	}
	for _, s := range []int{1, 2, 4} {
		for _, win := range [][4]int{
			{0, 0, 48, 40},  // the whole clip
			{0, 0, 16, 8},   // top-left corner
			{32, 32, 16, 8}, // bottom-right corner
			{0, 24, 8, 16},  // top and right edges
			{40, 0, 8, 12},  // bottom and left edges
			{13, 7, 20, 24}, // inside, off the block grid
			{5, 3, 4, 4},    // one block at s = 4
		} {
			y0, x0, h, w := win[0], win[1], win[2], win[3]
			if h%s != 0 || w%s != 0 {
				continue
			}
			want := m.Crop(y0, x0, h, w).Downsample(s)
			got := m.CropDownsample(y0, x0, h, w, s)
			if !bitsEqual(got, want) {
				t.Errorf("s=%d, window (%d,%d)+%dx%d: differs from Crop then Downsample", s, y0, x0, h, w)
			}
			if s > 1 && !bitsEqual(got, refDownsample(m.Crop(y0, x0, h, w), s)) {
				t.Errorf("s=%d, window (%d,%d)+%dx%d: differs from the block loop", s, y0, x0, h, w)
			}
		}
	}
	for name, f := range map[string]func(){
		"outside":     func() { m.CropDownsample(40, 0, 16, 8, 2) },
		"indivisible": func() { m.CropDownsample(0, 0, 6, 8, 4) },
		"zero factor": func() { m.CropDownsample(0, 0, 8, 8, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestUpsampleBilinearConstant(t *testing.T) {
	m := filled(3, 3, 2.5)
	u := m.UpsampleBilinear(4)
	for i, v := range u.Data {
		if math.Abs(v-2.5) > 1e-12 {
			t.Fatalf("bilinear of constant not constant at %d: %v", i, v)
		}
	}
}

// refUpsampleBilinear is the loop UpsampleBilinear ran before it
// tabulated each column's source indices and weight, kept as the
// reference: the tabulated loop must return the same bits.
func refUpsampleBilinear(m *Mat, s int) *Mat {
	out := NewMat(m.H*s, m.W*s)
	fs := float64(s)
	for y := 0; y < out.H; y++ {
		sy := (float64(y)+0.5)/fs - 0.5
		y0 := int(sy)
		if sy < 0 {
			sy, y0 = 0, 0
		}
		if y0 >= m.H-1 {
			y0 = m.H - 2
			if y0 < 0 {
				y0 = 0
			}
		}
		y1 := y0 + 1
		if y1 >= m.H {
			y1 = m.H - 1
		}
		fy := sy - float64(y0)
		if fy < 0 {
			fy = 0
		} else if fy > 1 {
			fy = 1
		}
		r0, r1 := m.Row(y0), m.Row(y1)
		dst := out.Row(y)
		for x := 0; x < out.W; x++ {
			sx := (float64(x)+0.5)/fs - 0.5
			x0 := int(sx)
			if sx < 0 {
				sx, x0 = 0, 0
			}
			if x0 >= m.W-1 {
				x0 = m.W - 2
				if x0 < 0 {
					x0 = 0
				}
			}
			x1 := x0 + 1
			if x1 >= m.W {
				x1 = m.W - 1
			}
			fx := sx - float64(x0)
			if fx < 0 {
				fx = 0
			} else if fx > 1 {
				fx = 1
			}
			top := r0[x0]*(1-fx) + r0[x1]*fx
			bot := r1[x0]*(1-fx) + r1[x1]*fx
			dst[x] = top*(1-fy) + bot*fy
		}
	}
	return out
}

func TestUpsampleBilinearBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	shapes := [][2]int{{1, 1}, {1, 7}, {7, 1}, {2, 2}, {3, 5}, {8, 8}, {16, 9}, {32, 32}}
	for _, s := range []int{2, 3, 4, 5, 8} {
		for _, sh := range shapes {
			m := randMat(rng, sh[0], sh[1])
			m.Data[0] = math.Copysign(0, -1)
			got, want := m.UpsampleBilinear(s), refUpsampleBilinear(m, s)
			for i, v := range got.Data {
				if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
					t.Fatalf("s=%d on %dx%d: pixel %d is %v, the reference loop gives %v", s, sh[0], sh[1], i, v, want.Data[i])
				}
			}
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
