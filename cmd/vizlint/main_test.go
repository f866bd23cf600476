package main

import (
	"bytes"
	"strings"
	"testing"
)

// testdata points at the analysis package's fixture tree; go list
// resolves relative directory patterns against the test's working
// directory (this package's source dir).
const testdata = "../../internal/analysis/testdata/src"

func runVizlint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestList(t *testing.T) {
	code, stdout, _ := runVizlint(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, name := range []string{"lockhold", "closepath", "floateq", "errwrap", "typecheck"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing %q:\n%s", name, stdout)
		}
	}
	for _, name := range []string{"blockinglock", "spanend", "goroleak", "ctxflow", "nopanic"} {
		if strings.Contains(stdout, name) {
			t.Errorf("-list output names deleted analyzer %q:\n%s", name, stdout)
		}
	}
}

// TestUnknownAnalyzer proves a directive naming an analyzer the suite
// does not have, such as a deleted one, is reported rather than left
// to suppress nothing silently.
func TestUnknownAnalyzer(t *testing.T) {
	code, stdout, _ := runVizlint(t, testdata+"/directive/bad")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stdout, `ignore directive names unknown analyzer "ctxflow"`) {
		t.Errorf("directive naming a deleted analyzer not reported:\n%s", stdout)
	}
}

// TestStrictIgnoresStale proves a directive that suppresses nothing is
// itself reported; stale-directive checking is how vizlint always runs.
func TestStrictIgnoresStale(t *testing.T) {
	code, stdout, _ := runVizlint(t, testdata+"/directive/stale")
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "stale ignore directive") {
		t.Errorf("stale directive not reported:\n%s", stdout)
	}
}

func TestCleanPackage(t *testing.T) {
	code, stdout, _ := runVizlint(t, testdata+"/floateq/clean")
	if code != 0 {
		t.Fatalf("exit %d, stdout:\n%s", code, stdout)
	}
	if stdout != "" {
		t.Errorf("unexpected findings:\n%s", stdout)
	}
}

func TestFindingsExitNonZero(t *testing.T) {
	code, stdout, stderr := runVizlint(t, testdata+"/floateq/bad")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "bad.go:") || !strings.Contains(stdout, "floateq:") {
		t.Errorf("findings lack file:line and analyzer name:\n%s", stdout)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("missing summary on stderr: %s", stderr)
	}
}

// TestSuppressedPackage proves a valid directive silences the finding
// through the CLI path.
func TestSuppressedPackage(t *testing.T) {
	code, stdout, _ := runVizlint(t, testdata+"/directive/clean")
	if code != 0 {
		t.Fatalf("exit %d, stdout:\n%s", code, stdout)
	}
}

// TestMalformedDirective proves a directive without a reason (or naming
// an unknown analyzer) is itself a finding and does not suppress.
func TestMalformedDirective(t *testing.T) {
	code, stdout, _ := runVizlint(t, testdata+"/directive/bad")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stdout, "vizlint: ignore directive") {
		t.Errorf("malformed directives not reported:\n%s", stdout)
	}
	if !strings.Contains(stdout, "floateq: direct ==") {
		t.Errorf("malformed directive must not suppress the finding:\n%s", stdout)
	}
}

func TestMultiFilePackage(t *testing.T) {
	code, stdout, _ := runVizlint(t, testdata+"/multifile/bad")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stdout, "a.go:") || !strings.Contains(stdout, "b.go:") {
		t.Errorf("findings should span both files of the package:\n%s", stdout)
	}
}

// TestTypecheckErrorPackage pins the contract from the issue: a package
// that fails to type-check is reported, not a crash.
func TestTypecheckErrorPackage(t *testing.T) {
	code, stdout, stderr := runVizlint(t, testdata+"/typecheck/broken")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "typecheck:") {
		t.Errorf("type errors not surfaced as findings:\n%s", stdout)
	}
}

// TestModuleClean keeps the merged tree lint-clean: the acceptance
// criterion the CI vizlint step enforces, runnable locally too.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full suite over the module")
	}
	// An import-path pattern keeps the test independent of the working
	// directory (this test runs from cmd/vizlint, where ./... would only
	// cover this subtree). A stale suppression anywhere in the tree
	// fails here first.
	code, stdout, stderr := runVizlint(t, "vizndp/...")
	if code != 0 {
		t.Fatalf("vizlint ./... exit %d\n%s%s", code, stdout, stderr)
	}
}
