// Package fixture is a tiny module with dead code planted for the
// reachability audit.
package fixture

import "fixture/shapes"

// Verbose is read by Area and assigned only by a test: a knob only a
// test turns.
var Verbose bool

// Precision is read by Area and assigned by a test and by cmd/area: a
// setting the program turns too.
var Precision = 1.0

// Area is called by cmd/area.
func Area(side float64) float64 {
	s := shapes.Square{Side: side, Tag: "unit"}
	s.Label = "square"
	if s.Scale != 0 && s.Units != "" {
		return s.Scale * s.Area()
	}
	if Verbose {
		return s.Area() * Precision
	}
	return s.Area()
}
