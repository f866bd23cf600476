//go:build race

package core

// raceEnabled reports whether this binary was built with the race
// detector, under which sync.Pool drops a share of what it is given on
// purpose, so allocation counts that rest on a pool do not repeat.
const raceEnabled = true
