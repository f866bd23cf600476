package contour

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"vizndp/internal/bitset"
	"vizndp/internal/grid"
)

func TestThresholdCellsSphereShell(t *testing.T) {
	g, vals := sphereField(24)
	cs, err := ThresholdCells(g, vals, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Count() == 0 || cs.Count() == g.NumCells() {
		t.Fatalf("kept %d of %d cells", cs.Count(), g.NumCells())
	}
	// Every kept cell has a corner in range; every dropped cell has none.
	kept := make(map[int32]bool, cs.Count())
	for _, c := range cs.Cells {
		kept[c] = true
	}
	nx, ny := g.Dims.X, g.Dims.Y
	cellsX, cellsY := nx-1, ny-1
	for k := 0; k < g.Dims.Z-1; k++ {
		for j := 0; j < cellsY; j++ {
			for i := 0; i < cellsX; i++ {
				any := false
				for c := 0; c < 8; c++ {
					dx, dy, dz := c&1, (c>>1)&1, (c>>2)&1
					v := float64(vals[g.PointIndex(i+dx, j+dy, k+dz)])
					if v >= 8 && v <= 10 {
						any = true
					}
				}
				id := int32((k*cellsY+j)*cellsX + i)
				if any != kept[id] {
					t.Fatalf("cell (%d,%d,%d): any=%v kept=%v", i, j, k, any, kept[id])
				}
			}
		}
	}
}

func TestThresholdCellsSorted(t *testing.T) {
	g, vals := sphereField(16)
	cs, err := ThresholdCells(g, vals, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(cs.Cells); i++ {
		if cs.Cells[i] <= cs.Cells[i-1] {
			t.Fatal("cell ids not strictly increasing")
		}
	}
}

func TestThresholdValidation(t *testing.T) {
	g, vals := sphereField(8)
	if _, err := ThresholdCells(g, vals, 5, 2); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := ThresholdCells(g, vals, math.NaN(), 2); err == nil {
		t.Error("NaN bound accepted")
	}
	if _, err := ThresholdCells(g, vals[:5], 1, 2); err == nil {
		t.Error("short values accepted")
	}
	if _, err := SelectRangeCorners(g, vals, 5, 2); err == nil {
		t.Error("inverted range accepted by selector")
	}
}

func TestThresholdSparseInvariant(t *testing.T) {
	// The split-threshold invariant: evaluating the threshold on the
	// NaN-masked selection reproduces the full cell set exactly.
	for _, seed := range []int64{1, 2, 3} {
		g := grid.NewUniform(20, 20, 20)
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float32, g.NumPoints())
		for i := range vals {
			vals[i] = rng.Float32()
		}
		smooth(g, vals, 2)
		lo, hi := 0.45, 0.55

		full, err := ThresholdCells(g, vals, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		mask, err := SelectRangeCorners(g, vals, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		sparse := make([]float32, len(vals))
		nan := float32(math.NaN())
		for i := range sparse {
			if mask.Get(i) {
				sparse[i] = vals[i]
			} else {
				sparse[i] = nan
			}
		}
		got, err := ThresholdCells(g, sparse, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(full) {
			t.Fatalf("seed %d: sparse threshold differs (%d vs %d cells)",
				seed, got.Count(), full.Count())
		}
		// The presence form reads only the selected points.
		if got, err = ThresholdCellsSparse(g, vals, mask, lo, hi); err != nil {
			t.Fatal(err)
		} else if !got.Equal(full) {
			t.Fatalf("seed %d: presence threshold differs (%d vs %d cells)",
				seed, got.Count(), full.Count())
		}
		if mask.Count() == 0 || mask.Count() == g.NumPoints() {
			t.Fatalf("seed %d: degenerate selection %d", seed, mask.Count())
		}
	}
}

// TestThreshold2D: the presence-form threshold refuses a 2-D grid, as
// ThresholdCells does (TestInputValidation).
func TestThreshold2D(t *testing.T) {
	g := grid.NewUniform(8, 8, 1)
	vals := make([]float32, g.NumPoints())
	present := bitset.New(len(vals))
	if _, err := ThresholdCellsSparse(g, vals, present, 0, 1); err == nil {
		t.Error("2-D grid accepted by the sparse threshold")
	}
}

func TestCellSetEqual(t *testing.T) {
	a := &CellSet{Cells: []int32{1, 2, 3}}
	b := &CellSet{Cells: []int32{1, 2, 3}}
	if !a.Equal(b) {
		t.Error("equal sets not equal")
	}
	b.Cells[2] = 4
	if a.Equal(b) {
		t.Error("different sets equal")
	}
	if a.Equal(&CellSet{}) {
		t.Error("different sizes equal")
	}
}

func TestSelectRangeCornersSuperset(t *testing.T) {
	g, vals := sphereField(20)
	mask, err := SelectRangeCorners(g, vals, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := ThresholdCells(g, vals, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Every corner of every kept cell is selected.
	cellsX, cellsY := g.Dims.X-1, g.Dims.Y-1
	for _, id := range cs.Cells {
		i := int(id) % cellsX
		j := (int(id) / cellsX) % cellsY
		k := int(id) / (cellsX * cellsY)
		for c := 0; c < 8; c++ {
			dx, dy, dz := c&1, (c>>1)&1, (c>>2)&1
			if !mask.Get(g.PointIndex(i+dx, j+dy, k+dz)) {
				t.Fatalf("cell %d corner (%d,%d,%d) not selected", id, i+dx, j+dy, k+dz)
			}
		}
	}
}

// selectRangeReference is the per-cell scan SelectRangeCorners ran before
// the bit-row sweep replaced it: classify every point into a []bool,
// then test each cell's corners and set all of them when one is in
// range. It stays as the oracle the sweep is held to.
func selectRangeReference(g *grid.Uniform, values []float32, lo, hi float64) *bitset.Bitset {
	nx, ny, nz := g.Dims.X, g.Dims.Y, g.Dims.Z
	strideY := nx
	strideZ := nx * ny
	n := g.NumPoints()

	in := make([]bool, n)
	for i := range in {
		in[i] = inRange(values[i], lo, hi)
	}

	return parallelSlabs(nz-1, n, func(k0, k1 int, local *bitset.Bitset) {
		for k := k0; k < k1; k++ {
			for j := 0; j < ny-1; j++ {
				base := k*strideZ + j*strideY
				for i := 0; i < nx-1; i++ {
					idx := base + i
					if in[idx] || in[idx+1] ||
						in[idx+strideY] || in[idx+strideY+1] ||
						in[idx+strideZ] || in[idx+strideZ+1] ||
						in[idx+strideZ+strideY] || in[idx+strideZ+strideY+1] {
						local.Set(idx)
						local.Set(idx + 1)
						local.Set(idx + strideY)
						local.Set(idx + strideY + 1)
						local.Set(idx + strideZ)
						local.Set(idx + strideZ + 1)
						local.Set(idx + strideZ + strideY)
						local.Set(idx + strideZ + strideY + 1)
					}
				}
			}
		}
	})
}

// TestSelectRangeCornersMatchesReference requires the bit-row sweep's
// mask to equal the reference scan's word for word, across row widths on
// both sides of a word boundary (and rows of one point, which have no
// cells), 2-D and degenerate grids, fields holding NaN, ±Inf and values
// exactly at either bound, and a range with lo == hi.
func TestSelectRangeCornersMatchesReference(t *testing.T) {
	inf := math.Inf(1)
	ranges := [][2]float64{{0.25, 0.75}, {0.5, 0.5}, {-inf, 0}, {1, inf}, {-inf, inf}}
	rng := rand.New(rand.NewSource(1))
	for _, nx := range []int{1, 2, 3, 63, 64, 65, 130} {
		for _, dims := range [][2]int{{5, 4}, {1, 3}, {2, 2}} {
			g := grid.NewUniform(nx, dims[0], dims[1])
			for _, r := range ranges {
				lo, hi := r[0], r[1]
				vals := make([]float32, g.NumPoints())
				for i := range vals {
					switch rng.Intn(20) {
					case 0:
						vals[i] = float32(math.NaN())
					case 1:
						vals[i] = float32(inf)
					case 2:
						vals[i] = float32(-inf)
					case 3:
						vals[i] = float32(lo)
					case 4:
						vals[i] = float32(hi)
					default:
						vals[i] = rng.Float32()*3 - 1
					}
				}
				got, err := SelectRangeCorners(g, vals, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				want := selectRangeReference(g, vals, lo, hi)
				if !slices.Equal(got.Words(), want.Words()) {
					t.Fatalf("%v [%v, %v]: %d points selected, reference %d",
						g.Dims, lo, hi, got.Count(), want.Count())
				}
			}
		}
	}
}

// Kept: the benchmark trace's contour.select_* pools the contour and range selectors of `wide` into one number; this isolates the range scan.
func BenchmarkSelectRangeCorners64(b *testing.B) {
	g, vals := sphereField(64)
	b.SetBytes(int64(4 * len(vals)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SelectRangeCorners(g, vals, 20, 24); err != nil {
			b.Fatal(err)
		}
	}
}
