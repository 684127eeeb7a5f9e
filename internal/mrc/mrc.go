// Package mrc implements mask manufacturability rule checks (MRC).
// The paper's core motivation (Fig. 3) is that stitching
// discontinuities "can violate the manufacturability rule check": a
// jag at a tile boundary creates sub-minimum width necks, sub-minimum
// spacing notches, or slivers below the minimum area that a mask shop
// rejects. This package measures those violations directly, so the
// stitch-loss metric can be cross-validated against the rule check a
// fab would actually run.
//
// Checks are morphological:
//   - minimum width: mask pixels removed by an opening of radius
//     ⌈(w-1)/2⌉ belong to features narrower than w,
//   - minimum spacing: background pixels removed by closing belong to
//     gaps narrower than s,
//   - minimum area: connected components smaller than a px².
package mrc

import (
	"fmt"

	"mgsilt/internal/filter"
	"mgsilt/internal/grid"
)

// Rules is a set of mask manufacturing constraints, in pixels.
type Rules struct {
	MinWidth int // narrowest legal feature
	MinSpace int // narrowest legal gap
	MinArea  int // smallest legal polygon area, px²
}

// DefaultRules returns rules proportioned to the experiment suite's
// optics (minimum feature ≈ 10 px wires, SRAFs ≈ 4-6 px): SRAFs are
// legal, 1-2 px slivers and notches are not.
func DefaultRules() Rules {
	return Rules{MinWidth: 3, MinSpace: 3, MinArea: 9}
}

// Validate reports whether the rules are usable.
func (r Rules) Validate() error {
	if r.MinWidth < 1 || r.MinSpace < 1 || r.MinArea < 1 {
		return fmt.Errorf("mrc: rules must be positive, got %+v", r)
	}
	return nil
}

// Violation is one rule violation, at a representative pixel; the
// Report slice it is in names the rule.
type Violation struct {
	Y, X int
}

// Report summarises a check.
type Report struct {
	WidthViolations []Violation
	SpaceViolations []Violation
	AreaViolations  []Violation
}

// Total returns the total violation count.
func (r *Report) Total() int {
	return len(r.WidthViolations) + len(r.SpaceViolations) + len(r.AreaViolations)
}

// Clean reports whether the mask passed every check.
func (r *Report) Clean() bool { return r.Total() == 0 }

// Check runs all rules against a binary mask (values ≥ 0.5 are mask
// material).
func Check(mask *grid.Mat, rules Rules) (*Report, error) {
	if err := rules.Validate(); err != nil {
		return nil, err
	}
	b := mask.Binarize(0.5)
	rep := &Report{}
	rep.WidthViolations = append(widthViolations(b, rules.MinWidth), neckViolations(b, rules.MinWidth)...)
	rep.SpaceViolations = spaceViolations(b, rules.MinSpace)
	rep.AreaViolations = areaViolations(b, rules.MinArea)
	return rep, nil
}

// neckViolations finds sub-minimum-width constrictions that the plain
// opening check misses: a neck attached to two large bodies is
// restored by the dilation half of the opening, but it still splits
// the component's opened image in two. One violation is reported per
// extra fragment — this is exactly the Fig. 1 failure mode, where a
// stitch jag leaves two wire halves hanging on a sliver.
func neckViolations(b *grid.Mat, minWidth int) []Violation {
	if minWidth <= 1 {
		return nil
	}
	r := (minWidth - 1) / 2
	if r < 1 {
		r = 1
	}
	opened := filter.Open(b, r)
	origLabels, _ := labelComponents(b)
	_, openedComps := labelComponents(opened)

	// Count opened fragments per original component.
	seen := map[int]int{} // original label → fragments observed
	var out []Violation
	for _, c := range openedComps {
		idx := c.Y*b.W + c.X
		orig := origLabels[idx]
		if orig < 0 {
			continue // fragment created outside original mask (cannot happen for opening)
		}
		seen[orig]++
		if seen[orig] > 1 {
			out = append(out, Violation{Y: c.Y, X: c.X})
		}
	}
	return out
}

// widthViolations finds features narrower than minWidth: pixels that
// vanish under an opening with the matching structuring element,
// grouped into connected clusters (one violation per cluster).
func widthViolations(b *grid.Mat, minWidth int) []Violation {
	if minWidth <= 1 {
		return nil
	}
	r := (minWidth - 1) / 2
	if r < 1 {
		r = 1
	}
	opened := filter.Open(b, r)
	thin := grid.NewMat(b.H, b.W)
	for i := range b.Data {
		if b.Data[i] >= 0.5 && opened.Data[i] < 0.5 {
			thin.Data[i] = 1
		}
	}
	return clusters(thin)
}

// spaceViolations finds gaps narrower than minSpace: background pixels
// that vanish under closing.
func spaceViolations(b *grid.Mat, minSpace int) []Violation {
	if minSpace <= 1 {
		return nil
	}
	r := (minSpace - 1) / 2
	if r < 1 {
		r = 1
	}
	closed := filter.Close(b, r)
	notch := grid.NewMat(b.H, b.W)
	for i := range b.Data {
		if b.Data[i] < 0.5 && closed.Data[i] >= 0.5 {
			notch.Data[i] = 1
		}
	}
	return clusters(notch)
}

// areaViolations finds connected mask components smaller than minArea.
func areaViolations(b *grid.Mat, minArea int) []Violation {
	if minArea <= 1 {
		return nil
	}
	var out []Violation
	comps := Components(b)
	for _, c := range comps {
		if c.Area < minArea {
			out = append(out, Violation{Y: c.Y, X: c.X})
		}
	}
	return out
}

// clusters groups marked pixels into 8-connected clusters and emits
// one violation per cluster.
func clusters(marked *grid.Mat) []Violation {
	var out []Violation
	for _, c := range Components(marked) {
		out = append(out, Violation{Y: c.Y, X: c.X})
	}
	return out
}

// Component is one 8-connected component of a binary image.
type Component struct {
	Y, X int // representative (first-visited) pixel
	Area int
}

// Components labels the 8-connected components of a binary image
// (values ≥ 0.5) with an iterative flood fill and returns one entry
// per component.
func Components(b *grid.Mat) []Component {
	_, comps := labelComponents(b)
	return comps
}

// LabelComponents is Components plus the per-pixel label map (-1 for
// background; labels index the component list). Mask-repair passes —
// opt's curvy legalization — use the map to zero whole components by
// area without re-running their own flood fill.
func LabelComponents(b *grid.Mat) ([]int, []Component) {
	return labelComponents(b)
}

// labelComponents returns a per-pixel component label (-1 for
// background) alongside the component list; labels index into it.
func labelComponents(b *grid.Mat) ([]int, []Component) {
	labels := make([]int, len(b.Data))
	for i := range labels {
		labels[i] = -1
	}
	var out []Component
	var stack []int
	for start := range b.Data {
		if labels[start] >= 0 || b.Data[start] < 0.5 {
			continue
		}
		id := len(out)
		comp := Component{Y: start / b.W, X: start % b.W}
		stack = append(stack[:0], start)
		labels[start] = id
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp.Area++
			y, x := i/b.W, i%b.W
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dy == 0 && dx == 0 {
						continue
					}
					ny, nx := y+dy, x+dx
					if ny < 0 || ny >= b.H || nx < 0 || nx >= b.W {
						continue
					}
					j := ny*b.W + nx
					if labels[j] < 0 && b.Data[j] >= 0.5 {
						labels[j] = id
						stack = append(stack, j)
					}
				}
			}
		}
		out = append(out, comp)
	}
	return labels, out
}

// CheckNearLines restricts a report to violations within `band` pixels
// of any of the given vertical/horizontal line positions — the Fig. 3
// question: are the violations at the stitch boundaries?
func (r *Report) CheckNearLines(vertical, horizontal []int, band int) *Report {
	near := func(v Violation) bool {
		for _, x := range vertical {
			if abs(v.X-x) <= band {
				return true
			}
		}
		for _, y := range horizontal {
			if abs(v.Y-y) <= band {
				return true
			}
		}
		return false
	}
	out := &Report{}
	for _, v := range r.WidthViolations {
		if near(v) {
			out.WidthViolations = append(out.WidthViolations, v)
		}
	}
	for _, v := range r.SpaceViolations {
		if near(v) {
			out.SpaceViolations = append(out.SpaceViolations, v)
		}
	}
	for _, v := range r.AreaViolations {
		if near(v) {
			out.AreaViolations = append(out.AreaViolations, v)
		}
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
