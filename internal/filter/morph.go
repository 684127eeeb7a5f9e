package filter

import "mgsilt/internal/grid"

// Open is erosion followed by dilation with a (2r+1)×(2r+1) square
// structuring element: removes features thinner than the element (used
// for MRC-style minimum-width cleanup). A pixel of the window decides
// an erosion when it is below 0.5 and a dilation when it is at least
// 0.5; NaN is neither, so erosion packs "not below 0.5" as its
// foreground and dilation "at least 0.5".
func Open(m *grid.Mat, r int) *grid.Mat {
	return pack(m, 0.5, notBelow).morph(r, true).morph(r, false).unpack()
}

// Close is dilation followed by erosion: fills gaps narrower than the
// structuring element.
func Close(m *grid.Mat, r int) *grid.Mat {
	return pack(m, 0.5, atLeast).morph(r, false).morph(r, true).unpack()
}

// Clean returns Close(Open(b, r), r) of the {0,1} plane b that is 1
// where m > threshold, leaving m as it is: the binarise-and-clean that
// hands a coarse grid's lifted solution to the next grid, with the
// threshold and all four passes on one packed plane.
func Clean(m *grid.Mat, threshold float64, r int) *grid.Mat {
	p := pack(m, threshold, above)
	return p.morph(r, true).morph(r, false).morph(r, false).morph(r, true).unpack()
}

// bitPlane is a {0,1} plane packed 64 pixels to a word: pixel x of row
// y is bit x%64 of words[y*stride+x/64]. The bits past w in a row's
// last word are zero.
type bitPlane struct {
	h, w, stride int
	words        []uint64
}

func newBitPlane(h, w int) *bitPlane {
	stride := (w + 63) / 64
	return &bitPlane{h: h, w: w, stride: stride, words: make([]uint64, h*stride)}
}

func (p *bitPlane) row(y int) []uint64 { return p.words[y*p.stride : (y+1)*p.stride] }

// foreground is the comparison that makes a value a set bit of a packed
// plane.
type foreground uint8

const (
	atLeast  foreground = iota // v ≥ t; NaN is clear
	notBelow                   // !(v < t); NaN is set
	above                      // v > t; NaN is clear
)

// pack returns the plane of the values of m that fg against t sets.
func pack(m *grid.Mat, t float64, fg foreground) *bitPlane {
	p := newBitPlane(m.H, m.W)
	for y := 0; y < m.H; y++ {
		src, dst := m.Row(y), p.row(y)
		for i := range dst {
			vals := src[64*i : min(64*i+64, len(src))]
			var word uint64
			switch fg {
			case atLeast:
				for b, v := range vals {
					var bit uint64
					if v >= t {
						bit = 1
					}
					word |= bit << uint(b)
				}
			case notBelow:
				for b, v := range vals {
					var bit uint64
					if !(v < t) {
						bit = 1
					}
					word |= bit << uint(b)
				}
			case above:
				for b, v := range vals {
					var bit uint64
					if v > t {
						bit = 1
					}
					word |= bit << uint(b)
				}
			}
			dst[i] = word
		}
	}
	return p
}

// byteValues[b] holds the eight pixel values of byte b of a packed row,
// lowest bit first.
var byteValues = func() (t [256][8]float64) {
	for b := range t {
		for i := range t[b] {
			if b>>i&1 != 0 {
				t[b][i] = 1
			}
		}
	}
	return t
}()

// unpack returns p as a {0,1} matrix.
func (p *bitPlane) unpack() *grid.Mat {
	out := grid.NewMat(p.h, p.w) // zeroed: clear bytes are left as they are
	for y := 0; y < p.h; y++ {
		dst := out.Row(y)
		for i, word := range p.row(y) {
			for x := 64 * i; word != 0 && x < p.w; x += 8 {
				if b := byte(word); b != 0 {
					copy(dst[x:min(x+8, p.w)], byteValues[b][:])
				}
				word >>= 8
			}
		}
	}
	return out
}

// morph returns the erosion (AND) or dilation (OR) of p by the
// (2r+1)×(2r+1) square, taken as a window of 2r+1 pixels along the rows
// and then one of 2r+1 rows down the columns: a square is the product of
// its two sides. Outside the plane is background, shifted in as zeros,
// so it clears an eroded pixel and never sets a dilated one. A radius of
// at least the plane's side covers the same pixels as the side itself.
func (p *bitPlane) morph(r int, erode bool) *bitPlane {
	if r < 0 {
		panic("filter: morphology radius must be non-negative")
	}
	rows := newBitPlane(p.h, p.w)
	rx := min(r, p.w)
	for y := 0; y < p.h; y++ {
		src, dst := p.row(y), rows.row(y)
		copy(dst, src)
		for k := 1; k <= rx; k++ {
			shiftCombine(dst, src, k, erode)
		}
		if rem := p.w % 64; rem != 0 {
			dst[len(dst)-1] &= 1<<rem - 1 // a dilation shifts bits past w
		}
	}
	out := newBitPlane(p.h, p.w)
	ry := min(r, p.h)
	for y := 0; y < p.h; y++ {
		if erode && (y < ry || y+ry >= p.h) {
			continue // the window reaches outside: background
		}
		dst := out.row(y)
		copy(dst, rows.row(y))
		for yy := max(0, y-ry); yy <= min(p.h-1, y+ry); yy++ {
			src := rows.row(yy)
			if erode {
				for i, v := range src {
					dst[i] &= v
				}
			} else {
				for i, v := range src {
					dst[i] |= v
				}
			}
		}
	}
	return out
}

// shiftCombine ANDs (erode) or ORs into dst the row src moved k pixels
// toward higher x and k pixels toward lower x, zeros filling in.
func shiftCombine(dst, src []uint64, k int, erode bool) {
	q, b := k/64, uint(k%64)
	n := len(src)
	for i := range dst {
		// up(x) = src(x−k), down(x) = src(x+k); a shift by 64 is zero.
		var up, down uint64
		if j := i - q; j >= 0 {
			up = src[j] << b
			if j > 0 {
				up |= src[j-1] >> (64 - b)
			}
		}
		if j := i + q; j < n {
			down = src[j] >> b
			if j+1 < n {
				down |= src[j+1] << (64 - b)
			}
		}
		if erode {
			dst[i] &= up & down
		} else {
			dst[i] |= up | down
		}
	}
}
