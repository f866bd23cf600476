//go:build !race

package vtkio

const raceEnabled = false
