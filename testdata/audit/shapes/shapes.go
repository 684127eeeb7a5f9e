// Package shapes holds the planted method and fields.
package shapes

// Square is built and measured by package fixture.
type Square struct {
	Side float64
	// Tag is set in a literal and never read.
	Tag string
	// Label is only assigned, but encoding/json reads it.
	Label string `json:"label"`
}

// Area is called.
func (s Square) Area() float64 { return s.Side * s.Side }

// String is called through fmt.Stringer, never by name.
func (s Square) String() string { return "square" }

// DeadMethod is called by nothing.
func (s Square) DeadMethod() float64 { return s.Area() }
