package fixture

// The package's second file: a field written in fixture.go is still
// write-only when this file, which never mentions it, is audited.

// DeadFunc is called by nothing but itself.
func DeadFunc(n int) int {
	if n == 0 {
		return 0
	}
	return DeadFunc(n - 1)
}
