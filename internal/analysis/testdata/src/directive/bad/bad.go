// Package bad holds malformed suppression directives, which are
// themselves findings: a directive that silently did nothing would hide
// the violation it was meant to justify.
package bad

func missingReason(a, b float64) bool {
	// vizlint:ignore floateq
	if a == b {
		return true
	}
	return false
}

func unknownAnalyzer(a, b float64) bool {
	// vizlint:ignore nosuch guard
	if a == b {
		return true
	}
	return false
}

func missingEverything(a, b float64) bool {
	// vizlint:ignore
	if a == b {
		return true
	}
	return false
}

func deletedAnalyzer(a, b float64) bool {
	// vizlint:ignore ctxflow an analyzer the suite no longer has
	if a == b {
		return true
	}
	return false
}
