package grid

import (
	"math"
	"testing"
)

// FuzzRestrictInterp attacks the multigrid restriction/interpolation
// pair (Downsample block averaging and its fused window form
// CropDownsample, UpsampleBilinear lifting) — the
// operators the two-level Schwarz correction round-trips layouts
// through every stage. For any finite input on any divisible geometry:
// no panic, exact output shapes, mass preservation under restriction
// (block averaging is an exact mean), and boundedness of both
// directions (each output pixel of either operator is a convex
// combination of input pixels, so the round trip can never escape the
// input's [min,max] range — the correction δ cannot blow up from
// resampling alone).
func FuzzRestrictInterp(f *testing.F) {
	f.Add(uint8(4), uint8(3), uint8(2), []byte{0, 64, 128, 255})
	f.Add(uint8(1), uint8(1), uint8(8), []byte{7})
	f.Add(uint8(31), uint8(2), uint8(4), []byte{})
	f.Add(uint8(0), uint8(0), uint8(0), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, hRaw, wRaw, sRaw uint8, data []byte) {
		// Normalise to a hostile-but-valid geometry: s ∈ [1,8], dims
		// multiples of s up to 32·s, so Downsample's divisibility
		// contract holds and any panic is a genuine bug.
		s := int(sRaw)%8 + 1
		h := (int(hRaw)%32 + 1) * s
		w := (int(wRaw)%32 + 1) * s
		m := NewMat(h, w)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range m.Data {
			var b byte
			if len(data) > 0 {
				b = data[i%len(data)]
			}
			// Spread the byte across a hostile range, including
			// negatives and magnitudes far outside [0,1].
			v := (float64(b) - 127.5) * 513
			m.Data[i] = v
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}

		down := m.Downsample(s)
		if down.H != h/s || down.W != w/s {
			t.Fatalf("Downsample(%d) of %dx%d gave %dx%d", s, h, w, down.H, down.W)
		}
		// Restriction preserves mass: the s² blocks partition the input.
		if got, want := down.Sum()*float64(s*s), m.Sum(); math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
			t.Fatalf("Downsample(%d) mass %g, want %g", s, got, want)
		}
		// The fused window restriction is the crop and the restriction
		// bit for bit, on a window of any offset, clip edges included.
		wh, ww := (int(wRaw)%(h/s)+1)*s, (int(hRaw)%(w/s)+1)*s
		y0, x0 := int(sRaw)%(h-wh+1), len(data)%(w-ww+1)
		if got, want := m.CropDownsample(y0, x0, wh, ww, s), m.Crop(y0, x0, wh, ww).Downsample(s); !bitsEqual(got, want) {
			t.Fatalf("CropDownsample(%d, %d, %d, %d, %d) of %dx%d differs from Crop then Downsample", y0, x0, wh, ww, s, h, w)
		}
		up := down.UpsampleBilinear(s)
		if up.H != h || up.W != w {
			t.Fatalf("round trip of %dx%d gave %dx%d", h, w, up.H, up.W)
		}
		const slack = 1e-9
		span := math.Max(math.Abs(lo), math.Abs(hi))
		for i, v := range up.Data {
			if math.IsNaN(v) || v < lo-slack*span || v > hi+slack*span {
				t.Fatalf("round trip escaped input range: pixel %d = %g outside [%g, %g]", i, v, lo, hi)
			}
		}
	})
}
