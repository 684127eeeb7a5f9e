package fixture

import "testing"

// The test turns Precision by its bare name.
func TestArea(t *testing.T) {
	Precision = 2
	Area(1)
}
