package harness

import (
	"strings"
	"testing"
)

// TestChaosExperimentSurvives drives the composed-fault campaign. The
// experiment hard-errors if any served payload differs from the clean
// sweep (gathered or not), any error surfaces to the caller, the clean
// gather drops no ghost duplicates, any of its fault classes never
// fired, the drained replica lost a fetch it had accepted, a
// round's counters and wide events disagree, the burn gauges disagree
// with the monitor or first principles, or the directed breach's
// bundle lacks its span tree — so a nil error here is the whole
// assertion; the rows are the table benchviz prints.
func TestChaosExperimentSurvives(t *testing.T) {
	tbl, err := env.ChaosExperiment("v03")
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	rows := []string{"clean", "1 node", "3 shards", "3 shards vs 1 node", "ghost dedup", "clean burst", "chaos",
		"whole arrays", "drained in flight", "shard failovers", "scans per answered fetch", "burn gauges", "directed breach"}
	for _, c := range chaosClasses {
		rows = append(rows, c.label)
	}
	for _, want := range rows {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q row:\n%s", want, out)
		}
	}
}
