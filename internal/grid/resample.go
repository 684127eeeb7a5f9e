package grid

import "fmt"

// Downsample returns m reduced by the integer factor s using s×s block
// averaging. Both dimensions must be divisible by s. Block averaging is
// the restriction operator used by the coarse grid of the multigrid ILT
// (Algorithm 1, lines 8-9): it preserves pattern density, which is what
// the band-limited optical model responds to.
func (m *Mat) Downsample(s int) *Mat {
	if s <= 0 || m.H%s != 0 || m.W%s != 0 {
		panic(fmt.Sprintf("grid: Downsample factor %d does not divide %dx%d", s, m.H, m.W))
	}
	if s == 1 {
		return m.Clone()
	}
	return m.CropDownsample(0, 0, m.H, m.W, s)
}

// CropDownsample returns Crop(y0, x0, h, w).Downsample(s) bit for bit
// without the h×w crop: each block is summed straight from m, in
// Downsample's order. It is how a restricted Schwarz round reads its
// coarse windows out of the full-resolution layout.
func (m *Mat) CropDownsample(y0, x0, h, w, s int) *Mat {
	if y0 < 0 || x0 < 0 || y0+h > m.H || x0+w > m.W {
		panic(fmt.Sprintf("grid: CropDownsample (%d,%d)+%dx%d exceeds %dx%d", y0, x0, h, w, m.H, m.W))
	}
	if s <= 0 || h%s != 0 || w%s != 0 {
		panic(fmt.Sprintf("grid: CropDownsample factor %d does not divide %dx%d", s, h, w))
	}
	if s == 1 {
		return m.Crop(y0, x0, h, w)
	}
	oh, ow := h/s, w/s
	out := NewMat(oh, ow)
	inv := 1.0 / float64(s*s)
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			sum := 0.0
			for dy := 0; dy < s; dy++ {
				row := m.Data[(y0+y*s+dy)*m.W+x0+x*s:]
				for dx := 0; dx < s; dx++ {
					sum += row[dx]
				}
			}
			out.Data[y*ow+x] = sum * inv
		}
	}
	return out
}

// UpsampleBilinear returns m enlarged by the integer factor s using
// bilinear interpolation with half-pixel-centre alignment. It is the
// interpolation operator that lifts the coarse-grid ILT solution onto
// the fine grid; bilinear lifting avoids the staircase seeds that
// nearest-neighbour replication would hand to the fine-grid solver.
func (m *Mat) UpsampleBilinear(s int) *Mat {
	if s <= 0 {
		panic("grid: UpsampleBilinear factor must be positive")
	}
	if s == 1 {
		return m.Clone()
	}
	out := NewMat(m.H*s, m.W*s)
	fs := float64(s)
	// Every row reads the same two source columns at the same weight for
	// a given output column: find them once.
	cols := make([]bilinearTap, out.W)
	for x := range cols {
		cols[x] = tapOf(x, m.W, fs)
	}
	for y := 0; y < out.H; y++ {
		ty := tapOf(y, m.H, fs)
		fy := ty.f
		r0, r1 := m.Row(ty.i0), m.Row(ty.i1)
		dst := out.Row(y)
		for x, tx := range cols {
			x0, x1, fx := tx.i0, tx.i1, tx.f
			top := r0[x0]*(1-fx) + r0[x1]*fx
			bot := r1[x0]*(1-fx) + r1[x1]*fx
			dst[x] = top*(1-fy) + bot*fy
		}
	}
	return out
}

// bilinearTap is where one output index of UpsampleBilinear reads along
// one axis: source indices i0 and i1, and the weight f of i1.
type bilinearTap struct {
	i0, i1 int
	f      float64
}

// tapOf returns the tap of output index i on an axis of n source pixels
// enlarged by fs. With half-pixel centres, the centre of output pixel i
// maps to (i+0.5)/fs − 0.5 in source pixel-centre space; the indices and
// the weight are clamped to the axis.
func tapOf(i, n int, fs float64) bilinearTap {
	si := (float64(i)+0.5)/fs - 0.5
	i0 := int(si)
	if si < 0 {
		si, i0 = 0, 0
	}
	if i0 >= n-1 {
		i0 = n - 2
		if i0 < 0 {
			i0 = 0
		}
	}
	i1 := i0 + 1
	if i1 >= n {
		i1 = n - 1
	}
	f := si - float64(i0)
	if f < 0 {
		f = 0
	} else if f > 1 {
		f = 1
	}
	return bilinearTap{i0, i1, f}
}

// Transpose returns a fresh transposed copy of m.
func (m *Mat) Transpose() *Mat {
	out := NewMat(m.W, m.H)
	for y := 0; y < m.H; y++ {
		row := m.Row(y)
		for x, v := range row {
			out.Data[x*out.W+y] = v
		}
	}
	return out
}
