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
	h, w := m.H/s, m.W/s
	out := NewMat(h, w)
	inv := 1.0 / float64(s*s)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			sum := 0.0
			for dy := 0; dy < s; dy++ {
				row := m.Data[(y*s+dy)*m.W+x*s:]
				for dx := 0; dx < s; dx++ {
					sum += row[dx]
				}
			}
			out.Data[y*w+x] = sum * inv
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
	for y := 0; y < out.H; y++ {
		// Source coordinate with half-pixel centres: the centre of output
		// pixel y maps to (y+0.5)/s - 0.5 in source pixel-centre space.
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
