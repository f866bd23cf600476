package harness

import (
	"strings"
	"testing"
)

// TestShardExperimentBitIdentical drives the full four-phase sharded
// campaign: the experiment itself errors unless every gathered payload —
// clean, degraded, and after a shard died mid-sweep — matched the
// single-node baseline byte for byte and the failover/degraded counters
// fired, so a nil error here is most of the assertion.
func TestShardExperimentBitIdentical(t *testing.T) {
	tbl, err := env.ShardExperiment("v03")
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, want := range []string{"1 node", "3 shards", "1 shard degraded", "1 shard killed", "ghost dedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q row:\n%s", want, out)
		}
	}
	if strings.Contains(out, "0 dup points") {
		t.Errorf("ghost layer produced no duplicate points — dedup untested:\n%s", out)
	}
}
