// Command area is the fixture module's caller.
package main

import (
	"fmt"

	"fixture"
)

func main() {
	fmt.Println(fixture.Area(2))
}
