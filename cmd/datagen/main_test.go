package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"vizndp/internal/compress"
	"vizndp/internal/grid"
	"vizndp/internal/vtkio"
)

func TestParseCodecs(t *testing.T) {
	if got, err := parseCodecs("all"); err != nil || len(got) != 3 {
		t.Errorf("all = %v, %v", got, err)
	}
	if got, err := parseCodecs("lz4"); err != nil || len(got) != 1 || got[0] != compress.LZ4 {
		t.Errorf("lz4 = %v, %v", got, err)
	}
	if _, err := parseCodecs("zip"); err == nil {
		t.Error("unknown codec accepted")
	}
}

func TestParseBricks(t *testing.T) {
	got, err := parseBricks("3x2x1", 2)
	if want := (grid.BrickSpec{NX: 3, NY: 2, NZ: 1, Ghost: 2}); err != nil || got != want {
		t.Errorf("3x2x1 = %+v, %v; want %+v", got, err, want)
	}
	for _, bad := range []string{"", "3x2", "axbxc"} {
		if _, err := parseBricks(bad, 1); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
}

// TestGenerateAndBadFlags is the binary's smoke test: build it, write a
// small bricked Nyx snapshot to a directory and read it back, and check
// that contradictory or unknown flag values exit non-zero.
func TestGenerateAndBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the datagen binary")
	}
	bin := filepath.Join(t.TempDir(), "datagen")
	if msg, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building datagen: %v\n%s", err, msg)
	}
	out := t.TempDir()
	msg, err := exec.Command(bin, "-dataset", "nyx", "-n", "12", "-codec", "lz4",
		"-bricks", "2x1x1", "-out", out).CombinedOutput()
	if err != nil {
		t.Fatalf("datagen: %v\n%s", err, msg)
	}
	for _, key := range []string{"nyx/lz4/ts00000.vnd", "nyx/lz4/manifest.json", "nyx/lz4/ts00000/" + vtkio.BrickKey(1)} {
		if !strings.Contains(string(msg), "wrote "+key) {
			t.Errorf("output does not report %s:\n%s", key, msg)
		}
	}
	reader, closer, err := vtkio.OpenFile(filepath.Join(out, "nyx", "lz4", "ts00000.vnd"))
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	if f, err := reader.ReadArray("baryon_density"); err != nil || len(f.Values) != 12*12*12 {
		t.Errorf("reading back baryon_density: %v, want 12^3 values", err)
	}

	for _, args := range [][]string{
		{"-dataset", "nyx", "-n", "8"},                                    // neither -out nor -store
		{"-dataset", "nyx", "-n", "8", "-out", out, "-store", "x:1"},      // both
		{"-dataset", "nyx", "-n", "8", "-out", out, "-codec", "zip"},      // unknown codec
		{"-dataset", "comet", "-n", "8", "-out", out},                     // unknown dataset
		{"-dataset", "nyx", "-n", "8", "-out", out, "-bricks", "2by2by2"}, // malformed bricks
	} {
		if msg, err := exec.Command(bin, args...).CombinedOutput(); err == nil {
			t.Errorf("datagen %v exited zero:\n%s", args, msg)
		}
	}
}
