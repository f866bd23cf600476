package contour

// Test-only names for the external test package, which needs
// internal/core (an importer of this package) beside the reference walk.
var (
	MarchReference = marchReference
	NaNLaced       = nanLaced
)
