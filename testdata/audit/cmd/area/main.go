// Command area is the fixture module's caller.
package main

import (
	"fmt"

	"fixture"
)

func main() {
	fixture.Precision = 0.5
	fmt.Println(fixture.Area(2))
}
