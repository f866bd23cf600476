//go:build race

package lz4

// raceEnabled reports whether this binary was built with the race
// detector, under which sync.Pool drops a share of what it is given on
// purpose, so the compressor's table is not always reused.
const raceEnabled = true
