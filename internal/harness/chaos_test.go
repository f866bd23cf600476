package harness

import (
	"strings"
	"testing"
)

// TestChaosExperimentSurvives drives the composed-fault campaign. The
// experiment hard-errors if any served payload differs from the clean
// sweep, any error surfaces to the caller, or any of its fault classes
// never fired — so a nil error here is the whole assertion.
func TestChaosExperimentSurvives(t *testing.T) {
	tbl, err := env.ChaosExperiment("v03")
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, c := range chaosClasses {
		if !strings.Contains(out, c.label) {
			t.Errorf("table missing %q row:\n%s", c.label, out)
		}
	}
}
