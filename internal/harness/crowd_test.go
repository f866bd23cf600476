package harness

import (
	"strings"
	"testing"
)

// TestCrowdExperimentCoalesces runs the full crowd campaign. The
// experiment hard-errors unless the coalesced round's scans-per-request
// drops below one, the payload cache actually hit, every served payload
// matched the ground truth bit for bit, and the coalesced / cache-hit
// counters reconciled with the wide-event flight ring — so a nil error
// here is the whole assertion.
func TestCrowdExperimentCoalesces(t *testing.T) {
	tbl, err := env.CrowdExperiment("v03")
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"ground truth", "uncoalesced", "coalesced+cache"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q row:\n%s", want, out)
		}
	}
}
