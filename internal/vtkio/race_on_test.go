//go:build race

package vtkio

// raceEnabled reports whether this binary was built with the race
// detector, under which sync.Pool drops a share of what it is given on
// purpose, so allocation bounds that rest on the extent pool do not hold.
const raceEnabled = true
