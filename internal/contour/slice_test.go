package contour

import (
	"math"
	"testing"

	"vizndp/internal/grid"
)

// indexField encodes (i,j,k) into the value so slices are verifiable.
func indexField(nx, ny, nz int) (*grid.Uniform, []float32) {
	g := grid.NewUniform(nx, ny, nz)
	vals := make([]float32, g.NumPoints())
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				vals[g.PointIndex(i, j, k)] = float32(i + 100*j + 10000*k)
			}
		}
	}
	return g, vals
}

func TestExtractSliceAllAxes(t *testing.T) {
	g, vals := indexField(5, 4, 3)

	g2, s, err := ExtractSlice(g, vals, AxisZ, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Dims != (grid.Dims{X: 5, Y: 4, Z: 1}) {
		t.Fatalf("Z slice dims = %v", g2.Dims)
	}
	for j := 0; j < 4; j++ {
		for i := 0; i < 5; i++ {
			if s[j*5+i] != float32(i+100*j+20000) {
				t.Fatalf("Z slice (%d,%d) = %v", i, j, s[j*5+i])
			}
		}
	}

	g2, s, err = ExtractSlice(g, vals, AxisY, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Dims != (grid.Dims{X: 5, Y: 3, Z: 1}) {
		t.Fatalf("Y slice dims = %v", g2.Dims)
	}
	for k := 0; k < 3; k++ {
		for i := 0; i < 5; i++ {
			if s[k*5+i] != float32(i+100+10000*k) {
				t.Fatalf("Y slice (%d,%d) = %v", i, k, s[k*5+i])
			}
		}
	}

	g2, s, err = ExtractSlice(g, vals, AxisX, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Dims != (grid.Dims{X: 4, Y: 3, Z: 1}) {
		t.Fatalf("X slice dims = %v", g2.Dims)
	}
	for k := 0; k < 3; k++ {
		for j := 0; j < 4; j++ {
			if s[k*4+j] != float32(3+100*j+10000*k) {
				t.Fatalf("X slice (%d,%d) = %v", j, k, s[k*4+j])
			}
		}
	}
}

func TestSliceValidation(t *testing.T) {
	g, vals := indexField(4, 4, 4)
	if _, _, err := ExtractSlice(g, vals, AxisZ, 4); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, _, err := ExtractSlice(g, vals, AxisZ, -1); err == nil {
		t.Error("negative index accepted")
	}
	if _, _, err := ExtractSlice(g, vals, Axis(9), 0); err == nil {
		t.Error("bad axis accepted")
	}
	if _, _, err := ExtractSlice(g, vals[:3], AxisZ, 0); err == nil {
		t.Error("short values accepted")
	}
}

func TestSliceSparseInvariant(t *testing.T) {
	// The split slice filter: extracting the plane from an array that is
	// NaN everywhere off it reproduces the full slice exactly.
	g, vals := indexField(8, 7, 6)
	for _, axis := range []Axis{AxisX, AxisY, AxisZ} {
		idx := 2
		sparse := make([]float32, len(vals))
		for p := range sparse {
			if c := [3]int{p % 8, p / 8 % 7, p / 56}; c[axis] == idx {
				sparse[p] = vals[p]
			} else {
				sparse[p] = float32(math.NaN())
			}
		}
		_, want, err := ExtractSlice(g, vals, axis, idx)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := ExtractSlice(g, sparse, axis, idx)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("axis %v: slice value %d = %v, want %v", axis, i, got[i], want[i])
			}
		}
	}
}

func TestAxisStringParse(t *testing.T) {
	for _, a := range []Axis{AxisX, AxisY, AxisZ} {
		got, err := ParseAxis(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAxis(%v) = %v, %v", a, got, err)
		}
	}
	if _, err := ParseAxis("w"); err == nil {
		t.Error("bad axis name accepted")
	}
	if (Axis(9)).String() == "" {
		t.Error("unknown axis has empty name")
	}
}
