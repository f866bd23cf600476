//go:build !race

package lz4

const raceEnabled = false
