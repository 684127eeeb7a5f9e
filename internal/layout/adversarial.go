package layout

import "fmt"

// Adversarial cases are the ROADMAP scenario-matrix geometries that
// stress ILT flows in ways the random routing suite rarely does:
//
//   - line-end-forest: a dense array of short vertical segments whose
//     line-ends face each other across sub-2×-resolution gaps — the
//     classic line-end pullback regime, where every tile is busy and
//     assembly errors show up as bridged or pulled-back ends.
//   - isolated-contact: a single contact-sized square in an otherwise
//     empty clip. The optics get no neighbouring support, most tiles
//     are trivially empty (the convergence-dropout fast path), and any
//     global correction must not smear energy into the empty field.
//   - giant-polygon: one connected comb polygon spanning the full clip
//     width, so it straddles every vertical tile boundary at every
//     tile count — the worst case for stitch consistency and the best
//     case for a coarse space, since its low-frequency shape is
//     visible only globally.
//
// All three are deterministic pure functions of the clip size, so they
// can be promoted into the bench suite and the convergence tests
// without carrying seeds.

// Adversarial builds the named adversarial clip at the given size.
// Size must be at least 64; geometry scales proportionally while
// feature widths stay at the ≈10 px resolution regime of
// DefaultConfig.
func Adversarial(name string, size int) (*Clip, error) {
	if size < 64 {
		return nil, fmt.Errorf("layout: adversarial size %d below minimum 64", size)
	}
	var rects []Rect
	switch name {
	case "line-end-forest":
		rects = lineEndForest(size)
	case "isolated-contact":
		rects = isolatedContact(size)
	case "giant-polygon":
		rects = giantPolygon(size)
	default:
		return nil, fmt.Errorf("layout: unknown adversarial case %q", name)
	}
	return FromRects(name, size, rects)
}

// lineEndForest tiles the interior with columns of short vertical
// segments: wire width 10 on a 25 px track pitch, segment length 30
// with 14 px end-to-end gaps, alternate columns phase-shifted by half
// a period so every segment faces a neighbouring line-end diagonally.
func lineEndForest(size int) []Rect {
	const (
		width  = 10
		pitch  = 25
		seg    = 30
		gap    = 14
		period = seg + gap
	)
	border := size / 16
	var rects []Rect
	col := 0
	for x := border; x+width <= size-border; x += pitch {
		y0 := border
		if col%2 == 1 {
			y0 += period / 2
		}
		for y := y0; y+seg <= size-border; y += period {
			rects = append(rects, Rect{Y0: y, X0: x, Y1: y + seg, X1: x + width})
		}
		col++
	}
	return rects
}

// isolatedContact draws one 14 px contact square at the clip centre.
func isolatedContact(size int) []Rect {
	const c = 14
	y := size/2 - c/2
	return []Rect{{Y0: y, X0: y, Y1: y + c, X1: y + c}}
}

// giantPolygon draws a single connected comb: a horizontal spine
// across (almost) the full clip width with vertical teeth alternating
// up and down, so the one polygon crosses every vertical tile boundary
// and both horizontal halves at any power-of-two tile count.
func giantPolygon(size int) []Rect {
	const (
		spineH = 16
		tooth  = 10
		tPitch = 40
	)
	border := size / 16
	mid := size / 2
	reach := size/2 - 2*border // tooth extent from the spine
	rects := []Rect{{Y0: mid - spineH/2, X0: border, Y1: mid + spineH/2, X1: size - border}}
	i := 0
	for x := border + tPitch/2; x+tooth <= size-border; x += tPitch {
		if i%2 == 0 {
			rects = append(rects, Rect{Y0: mid - spineH/2 - reach, X0: x, Y1: mid - spineH/2, X1: x + tooth})
		} else {
			rects = append(rects, Rect{Y0: mid + spineH/2, X0: x, Y1: mid + spineH/2 + reach, X1: x + tooth})
		}
		i++
	}
	return rects
}
