package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"strings"
	"testing"
	"time"

	"vizndp/internal/harness"
)

// TestUnknownExperimentFailsFast pins the -exp validation: a typo is an
// error naming the valid experiments, raised before the testbed (whose
// "building testbed" progress line would show) is built.
func TestUnknownExperimentFailsFast(t *testing.T) {
	var stdout, stderr bytes.Buffer
	start := time.Now()
	err := run([]string{"-quick", "-exp", "fig1,fualts"}, &stdout, &stderr)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if !strings.Contains(err.Error(), `"fualts"`) || !strings.Contains(err.Error(), harness.ExperimentNames()) {
		t.Errorf("error %q does not name the typo and list the valid experiments", err)
	}
	if out := stdout.String() + stderr.String(); strings.Contains(out, "building testbed") {
		t.Errorf("testbed was built before -exp was validated (%s):\n%s", time.Since(start), out)
	}
}

// TestJSONDocumentRoundTrips runs one cheap experiment end to end and
// checks the -json document keeps its {config, experiments} shape, with
// every human-oriented line kept off the result stream.
func TestJSONDocumentRoundTrips(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-quick", "-n", "16", "-steps", "1", "-exp", "fig1", "-json"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	var doc struct {
		Config      *harness.Config `json:"config"`
		Experiments []struct {
			Title   string     `json:"title"`
			Headers []string   `json:"headers"`
			Rows    [][]string `json:"rows"`
		} `json:"experiments"`
	}
	dec := json.NewDecoder(&stdout)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("result stream is not the JSON document: %v", err)
	}
	if doc.Config == nil || doc.Config.AsteroidN != 16 || doc.Config.NumTimesteps != 1 {
		t.Errorf("config = %+v, want the -n 16 -steps 1 quick configuration", doc.Config)
	}
	if len(doc.Experiments) != 1 || !strings.HasPrefix(doc.Experiments[0].Title, "Fig. 1") ||
		len(doc.Experiments[0].Headers) != 3 || len(doc.Experiments[0].Rows) != 3 {
		t.Errorf("experiments = %+v, want the one Fig. 1 table", doc.Experiments)
	}
	again, err := json.Marshal(doc)
	if err != nil || !json.Valid(again) {
		t.Errorf("document does not re-encode: %v", err)
	}
	if !strings.Contains(stderr.String(), "testbed ready") {
		t.Errorf("progress lines missing from stderr:\n%s", stderr.String())
	}
}

// TestFlagHelpListsTheRegistry holds the -exp help text to the registry,
// name for name and in order.
func TestFlagHelpListsTheRegistry(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-h"}, &stdout, &stderr); err == nil {
		t.Fatal("-h returned no error")
	}
	m := regexp.MustCompile(`comma-separated experiments: (\S+) or all`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("-exp help text not found in:\n%s", stderr.String())
	}
	var want []string
	for _, x := range harness.Experiments {
		want = append(want, x.Name)
	}
	if got := strings.Split(m[1], ","); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("help lists %v, registry has %v", got, want)
	}
}
