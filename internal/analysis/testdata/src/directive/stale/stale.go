// Package stale carries a well-formed ignore directive that no longer
// suppresses anything; vizlint reports it as stale.
package stale

// vizlint:ignore floateq nothing here compares floats any more
func add(a, b int) int {
	return a + b
}
