// Package fixture is a tiny module with dead code planted for the
// reachability audit.
package fixture

import "fixture/shapes"

// Area is called by cmd/area.
func Area(side float64) float64 {
	s := shapes.Square{Side: side, Tag: "unit"}
	s.Label = "square"
	if s.Scale != 0 && s.Units != "" {
		return s.Scale * s.Area()
	}
	return s.Area()
}
