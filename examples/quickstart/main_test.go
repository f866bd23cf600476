package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickstartContour drives the example end to end at a small grid:
// the split contour must equal the full-array one and the render must
// land.
func TestQuickstartContour(t *testing.T) {
	var out strings.Builder
	png := filepath.Join(t.TempDir(), "quickstart.png")
	if err := run(&out, 24, png); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "identical to the full-array contour") {
		t.Errorf("output lacks the identity line:\n%s", out.String())
	}
	if fi, err := os.Stat(png); err != nil || fi.Size() == 0 {
		t.Errorf("png not written: %v", err)
	}
}
