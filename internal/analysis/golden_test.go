package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata expect.txt golden files")

// goldenCase is one testdata package checked against its expect.txt.
type goldenCase struct {
	// dir names the package under testdata/src.
	dir string
	// analyzers lists the analyzers to run by name; nil runs All().
	analyzers []string
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{"lockhold/bad", []string{"lockhold"}},
		{"lockhold/clean", []string{"lockhold"}},
		{"lockhold/broken", []string{"lockhold"}},
		{"blockinglock/bad", []string{"lockhold"}},
		{"blockinglock/clean", []string{"lockhold"}},
		{"closepath/bad", []string{"closepath"}},
		{"closepath/clean", []string{"closepath"}},
		{"closepath/broken", []string{"closepath"}},
		{"floateq/bad", []string{"floateq"}},
		{"floateq/clean", []string{"floateq"}},
		{"errwrap/bad", []string{"errwrap"}},
		{"errwrap/clean", []string{"errwrap"}},
		{"directive/bad", []string{"floateq"}},
		{"directive/clean", []string{"floateq"}},
		{"directive/stale", nil},
		{"typecheck/broken", nil},
		{"multifile/bad", []string{"floateq", "errwrap"}},
	}
}

// pick resolves analyzer names against All().
func pick(t *testing.T, names []string) []*Analyzer {
	if names == nil {
		return All()
	}
	var out []*Analyzer
	for _, name := range names {
		i := slices.IndexFunc(All(), func(a *Analyzer) bool { return a.Name == name })
		if i < 0 {
			t.Fatalf("no analyzer %q", name)
		}
		out = append(out, All()[i])
	}
	return out
}

func TestGolden(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range goldenCases() {
		t.Run(strings.ReplaceAll(c.dir, "/", "_"), func(t *testing.T) {
			dir := filepath.Join("testdata", "src", filepath.FromSlash(c.dir))
			pkg, err := loader.LoadDir(dir, "vizndp/internal/analysis/testdata/"+c.dir)
			if err != nil {
				t.Fatal(err)
			}
			findings := Analyze([]*Package{pkg}, pick(t, c.analyzers))
			var b strings.Builder
			for _, f := range findings {
				fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n",
					filepath.Base(f.Pos.Filename), f.Pos.Line, f.Pos.Column,
					f.Analyzer, f.Message)
			}
			got := b.String()
			goldenPath := filepath.Join(dir, "expect.txt")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantBytes, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("reading golden file (run with -update to create): %v", err)
			}
			want := string(wantBytes)
			if got != want {
				t.Errorf("findings mismatch\n--- got ---\n%s--- want (%s) ---\n%s",
					got, goldenPath, want)
			}
			if strings.HasSuffix(c.dir, "/bad") || strings.HasSuffix(c.dir, "/broken") {
				if got == "" {
					t.Errorf("violation package %s produced no findings", c.dir)
				}
			}
			if strings.HasSuffix(c.dir, "/clean") && got != "" {
				t.Errorf("clean package %s produced findings:\n%s", c.dir, got)
			}
		})
	}
}

// TestGoldenTypecheckPartial pins the contract that a package with type
// errors still yields findings rather than a crash, and that syntactic
// analyzers still run over its AST.
func TestGoldenTypecheckPartial(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "typecheck", "broken"),
		"vizndp/internal/analysis/testdata/typecheck/broken")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) == 0 {
		t.Fatal("expected type errors")
	}
	findings := Analyze([]*Package{pkg}, All())
	seen := false
	for _, f := range findings {
		if f.Analyzer == TypecheckName {
			seen = true
		}
	}
	if !seen {
		t.Errorf("no typecheck findings in %v", findings)
	}
}
