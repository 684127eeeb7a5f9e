package fixture_test

import (
	"testing"

	"fixture"
)

// The external test turns Verbose through the package name.
func TestVerboseArea(t *testing.T) {
	fixture.Verbose = true
	fixture.Area(1)
}
