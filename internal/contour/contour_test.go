package contour

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"vizndp/internal/bitset"
	"vizndp/internal/grid"
)

// sphereField returns the distance-from-centre field on an n^3 grid.
func sphereField(n int) (*grid.Uniform, []float32) {
	g := grid.NewUniform(n, n, n)
	c := float64(n-1) / 2
	vals := make([]float32, g.NumPoints())
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				dx, dy, dz := float64(i)-c, float64(j)-c, float64(k)-c
				vals[g.PointIndex(i, j, k)] = float32(math.Sqrt(dx*dx + dy*dy + dz*dz))
			}
		}
	}
	return g, vals
}

func TestSphereSurface(t *testing.T) {
	g, vals := sphereField(32)
	r := 10.0
	m, err := MarchingTetrahedra(g, vals, []float64{r})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTriangles() == 0 {
		t.Fatal("no triangles for sphere")
	}

	// Watertight: the isosurface of a sphere strictly inside the grid is
	// closed.
	if be := m.BoundaryEdges(); be != 0 {
		t.Errorf("boundary edges = %d, want 0 (watertight)", be)
	}

	// Area close to 4*pi*r^2.
	want := 4 * math.Pi * r * r
	got := m.Area()
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("area = %.1f, want ~%.1f", got, want)
	}

	// Every vertex lies near the sphere (within a cell diagonal).
	c := float64(31) / 2
	for _, v := range m.Vertices {
		d := math.Sqrt((v.X-c)*(v.X-c) + (v.Y-c)*(v.Y-c) + (v.Z-c)*(v.Z-c))
		if math.Abs(d-r) > math.Sqrt(3) {
			t.Fatalf("vertex at distance %.3f, want ~%.1f", d, r)
		}
	}
}

func TestSphereNormalsPointOutward(t *testing.T) {
	g, vals := sphereField(24)
	r := 8.0
	m, err := MarchingTetrahedra(g, vals, []float64{r})
	if err != nil {
		t.Fatal(err)
	}
	m.ComputeNormals()
	c := float64(23) / 2
	bad := 0
	for i, v := range m.Vertices {
		radial := grid.Vec3{X: v.X - c, Y: v.Y - c, Z: v.Z - c}.Normalize()
		// Inside the sphere value < iso, so "outward" is radially out.
		if m.Normals[i].Dot(radial) <= 0 {
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d/%d vertex normals point inward", bad, len(m.Vertices))
	}
}

func TestTriangleWindingConsistent(t *testing.T) {
	// Face normals (from winding) should agree with the outward direction.
	g, vals := sphereField(20)
	m, err := MarchingTetrahedra(g, vals, []float64{6})
	if err != nil {
		t.Fatal(err)
	}
	c := float64(19) / 2
	bad := 0
	for _, tri := range m.Tris {
		a, b, cc := m.Vertices[tri[0]], m.Vertices[tri[1]], m.Vertices[tri[2]]
		n := b.Sub(a).Cross(cc.Sub(a))
		centroid := a.Add(b).Add(cc).Scale(1.0 / 3)
		radial := grid.Vec3{X: centroid.X - c, Y: centroid.Y - c, Z: centroid.Z - c}
		if n.Dot(radial) <= 0 {
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d/%d triangles wound inward", bad, len(m.Tris))
	}
}

func TestEmptyContour(t *testing.T) {
	g, vals := sphereField(16)
	m, err := MarchingTetrahedra(g, vals, []float64{1000})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTriangles() != 0 || m.NumVertices() != 0 {
		t.Errorf("out-of-range isovalue produced %d tris", m.NumTriangles())
	}
}

func TestConstantFieldNoSurface(t *testing.T) {
	g := grid.NewUniform(8, 8, 8)
	vals := make([]float32, g.NumPoints())
	for i := range vals {
		vals[i] = 5
	}
	// iso exactly at the constant: inside = v < iso is false everywhere.
	m, err := MarchingTetrahedra(g, vals, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTriangles() != 0 {
		t.Errorf("flat field at isovalue produced %d triangles", m.NumTriangles())
	}
}

func TestMultiIsovalue(t *testing.T) {
	g, vals := sphereField(32)
	m1, err := MarchingTetrahedra(g, vals, []float64{6})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := MarchingTetrahedra(g, vals, []float64{11})
	if err != nil {
		t.Fatal(err)
	}
	both, err := MarchingTetrahedra(g, vals, []float64{6, 11})
	if err != nil {
		t.Fatal(err)
	}
	if both.NumTriangles() != m1.NumTriangles()+m2.NumTriangles() {
		t.Errorf("multi-iso tris = %d, want %d+%d",
			both.NumTriangles(), m1.NumTriangles(), m2.NumTriangles())
	}
	wantArea := m1.Area() + m2.Area()
	if math.Abs(both.Area()-wantArea) > 1e-9*wantArea {
		t.Errorf("multi-iso area = %v, want %v", both.Area(), wantArea)
	}
}

func TestDeterminism(t *testing.T) {
	g, vals := sphereField(20)
	a, err := MarchingTetrahedra(g, vals, []float64{5, 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarchingTetrahedra(g, vals, []float64{5, 8})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("two identical runs produced different meshes")
	}
}

func TestSparseReconstructionInvariant(t *testing.T) {
	// THE core invariant of the paper's split filter: contouring the
	// pre-filtered (NaN-masked) array must reproduce the full contour
	// exactly.
	for _, seed := range []int64{1, 2, 3, 4} {
		g := grid.NewUniform(24, 24, 24)
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float32, g.NumPoints())
		for i := range vals {
			vals[i] = rng.Float32()
		}
		// Smooth the random field so selectivity is below 100%.
		smooth(g, vals, 2)
		isos := []float64{0.4, 0.6}

		full, err := MarchingTetrahedra(g, vals, isos)
		if err != nil {
			t.Fatal(err)
		}

		mask, err := SelectCellCorners(g, vals, isos)
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
		got, err := MarchingTetrahedra(g, sparse, isos)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(full) {
			t.Fatalf("seed %d: sparse contour differs from full (%d vs %d tris)",
				seed, got.NumTriangles(), full.NumTriangles())
		}
	}
}

// smooth applies passes of 6-neighbour averaging.
func smooth(g *grid.Uniform, vals []float32, passes int) {
	nx, ny, nz := g.Dims.X, g.Dims.Y, g.Dims.Z
	for p := 0; p < passes; p++ {
		out := make([]float32, len(vals))
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					idx := g.PointIndex(i, j, k)
					sum, n := vals[idx], float32(1)
					if i > 0 {
						sum += vals[idx-1]
						n++
					}
					if i < nx-1 {
						sum += vals[idx+1]
						n++
					}
					if j > 0 {
						sum += vals[idx-nx]
						n++
					}
					if j < ny-1 {
						sum += vals[idx+nx]
						n++
					}
					if k > 0 {
						sum += vals[idx-nx*ny]
						n++
					}
					if k < nz-1 {
						sum += vals[idx+nx*ny]
						n++
					}
					out[idx] = sum / n
				}
			}
		}
		copy(vals, out)
	}
}

func TestInputValidation(t *testing.T) {
	g := grid.NewUniform(4, 4, 4)
	vals := make([]float32, g.NumPoints())
	if _, err := MarchingTetrahedra(g, vals[:10], []float64{1}); err == nil {
		t.Error("short values accepted")
	}
	if _, err := MarchingTetrahedra(g, vals, nil); err == nil {
		t.Error("no isovalues accepted")
	}
	if _, err := MarchingTetrahedra(g, vals, []float64{math.NaN()}); err == nil {
		t.Error("NaN isovalue accepted")
	}
	if _, err := SelectCellCorners(g, vals[:10], []float64{1}); err == nil {
		t.Error("selection accepted short values")
	}
	if _, err := SelectCellCorners(g, vals, nil); err == nil {
		t.Error("selection accepted no isovalues")
	}
	// A 2-D grid has no cell layer: every filter and selection refuses it.
	g2d := grid.NewUniform(4, 4, 1)
	vals2d := make([]float32, g2d.NumPoints())
	if _, err := MarchingTetrahedra(g2d, vals2d, []float64{1}); err == nil {
		t.Error("2-D grid accepted by the contour")
	}
	if _, err := SelectCellCorners(g2d, vals2d, []float64{1}); err == nil {
		t.Error("2-D grid accepted by the contour selection")
	}
	if _, err := SelectRangeCorners(g2d, vals2d, 0, 1); err == nil {
		t.Error("2-D grid accepted by the range selection")
	}
	if _, err := ThresholdCells(g2d, vals2d, 0, 1); err == nil {
		t.Error("2-D grid accepted by the threshold")
	}
}

func TestInterestingEdgePointsPlane(t *testing.T) {
	// A linear ramp in x crosses iso between two adjacent x-layers: the
	// interesting points are exactly those two layers.
	g := grid.NewUniform(10, 7, 5)
	vals := make([]float32, g.NumPoints())
	for k := 0; k < 5; k++ {
		for j := 0; j < 7; j++ {
			for i := 0; i < 10; i++ {
				vals[g.PointIndex(i, j, k)] = float32(i)
			}
		}
	}
	mask, err := InterestingEdgePoints(g, vals, []float64{3.5})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * 7 * 5
	if mask.Count() != want {
		t.Errorf("selected %d points, want %d", mask.Count(), want)
	}
	for k := 0; k < 5; k++ {
		for j := 0; j < 7; j++ {
			if !mask.Get(g.PointIndex(3, j, k)) || !mask.Get(g.PointIndex(4, j, k)) {
				t.Fatal("layer 3/4 points not selected")
			}
			if mask.Get(g.PointIndex(0, j, k)) || mask.Get(g.PointIndex(9, j, k)) {
				t.Fatal("far points selected")
			}
		}
	}
}

func TestSelectCellCornersSuperset(t *testing.T) {
	g, vals := sphereField(24)
	isos := []float64{7.5}
	edges, err := InterestingEdgePoints(g, vals, isos)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := SelectCellCorners(g, vals, isos)
	if err != nil {
		t.Fatal(err)
	}
	if cells.Count() < edges.Count() {
		t.Errorf("cell selection (%d) smaller than edge selection (%d)",
			cells.Count(), edges.Count())
	}
	edges.ForEach(func(i int) {
		if !cells.Get(i) {
			t.Fatalf("edge-selected point %d missing from cell selection", i)
		}
	})
}

// TestSelectSplitUnion pins what a multi-isovalue selection means: for
// any set of isovalues, in any order, SelectCellCorners selects exactly
// the union of the single-isovalue selections, on the 3D bit-parallel
// path and on the 2D per-cell path.
func TestSelectSplitUnion(t *testing.T) {
	isos := []float64{6, 9, 12.5, 14}
	subsets := [][]int{{0}, {1, 3}, {0, 2}, {0, 1, 2, 3}, {3, 1}}
	noisySphere := func(n int) (*grid.Uniform, []float32) {
		g, vals := sphereField(n)
		rng := rand.New(rand.NewSource(7))
		for i := range vals {
			vals[i] += float32(rng.NormFloat64())
		}
		return g, vals
	}
	for _, tc := range []struct {
		name  string
		field func(int) (*grid.Uniform, []float32)
		n     int
	}{{"3d", sphereField, 24}, {"3d-random", noisySphere, 16}} {
		t.Run(tc.name, func(t *testing.T) {
			g, vals := tc.field(tc.n)
			for _, sub := range subsets {
				subIsos := make([]float64, len(sub))
				union := bitset.New(g.NumPoints())
				for i, idx := range sub {
					subIsos[i] = isos[idx]
					one, err := SelectCellCorners(g, vals, isos[idx:idx+1])
					if err != nil {
						t.Fatal(err)
					}
					union.Or(one)
				}
				direct, err := SelectCellCorners(g, vals, subIsos)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(union.Words(), direct.Words()) {
					t.Errorf("subset %v: union of single-isovalue selections != one selection over the set (%d bits vs %d)",
						sub, union.Count(), direct.Count())
				}
			}
		})
	}
}

func TestSelectBitsMatchesGeneric(t *testing.T) {
	// The bit-parallel production path must agree bit for bit with the
	// straightforward per-cell reference scan, including NaN poisoning
	// and word-boundary cells.
	for _, dims := range [][3]int{{24, 24, 24}, {64, 5, 4}, {65, 3, 3}, {127, 2, 2}, {9, 65, 2}} {
		g := grid.NewUniform(dims[0], dims[1], dims[2])
		rng := rand.New(rand.NewSource(int64(dims[0])))
		vals := make([]float32, g.NumPoints())
		for i := range vals {
			vals[i] = rng.Float32()
			if rng.Intn(50) == 0 {
				vals[i] = float32(math.NaN())
			}
		}
		isos := []float64{0.2, 0.5, 0.9}
		fast, err := SelectCellCorners(g, vals, isos)
		if err != nil {
			t.Fatal(err)
		}
		generic := selectCellCornersGeneric(g, vals, isos)
		if fast.Count() != generic.Count() {
			t.Fatalf("%v: bits selected %d, generic %d", dims, fast.Count(), generic.Count())
		}
		fast.ForEach(func(i int) {
			if !generic.Get(i) {
				t.Fatalf("%v: bit %d differs between bit and generic paths", dims, i)
			}
		})
	}
}

func TestQuickSelectBitsMatchesGeneric(t *testing.T) {
	f := func(raw []byte, seed int64) bool {
		// Random small grid with dimensions crossing word boundaries.
		rng := rand.New(rand.NewSource(seed))
		nx := 2 + rng.Intn(70)
		ny := 2 + rng.Intn(6)
		nz := 2 + rng.Intn(4)
		g := grid.NewUniform(nx, ny, nz)
		vals := make([]float32, g.NumPoints())
		for i := range vals {
			if len(raw) > 0 {
				vals[i] = float32(raw[i%len(raw)]) / 255
			}
			if rng.Intn(40) == 0 {
				vals[i] = float32(math.NaN())
			}
		}
		isos := []float64{0.3, 0.7}
		fast, err := SelectCellCorners(g, vals, isos)
		if err != nil {
			return false
		}
		generic := selectCellCornersGeneric(g, vals, isos)
		if fast.Count() != generic.Count() {
			return false
		}
		ok := true
		fast.ForEach(func(i int) {
			if !generic.Get(i) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestSelectivityLowForSphere(t *testing.T) {
	// A thin shell out of a 48^3 volume: selectivity should be small,
	// mirroring the orders-of-magnitude reductions in the paper's Fig. 6.
	g, vals := sphereField(48)
	mask, err := SelectCellCorners(g, vals, []float64{15})
	if err != nil {
		t.Fatal(err)
	}
	sel := Selectivity(mask)
	if sel <= 0 || sel > 0.2 {
		t.Errorf("selectivity = %.4f, want small and nonzero", sel)
	}
}

// TestSelectCellCorners2D: a slice plane is a 2-D grid with no cell
// layer, so the contour selection refuses every plane ExtractSlice cuts.
func TestSelectCellCorners2D(t *testing.T) {
	g, vals := sphereField(12)
	for _, axis := range []Axis{AxisX, AxisY, AxisZ} {
		g2, plane, err := ExtractSlice(g, vals, axis, 6)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SelectCellCorners(g2, plane, []float64{4}); err == nil {
			t.Errorf("%v slice (%v): 2-D plane accepted by the contour selection", axis, g2.Dims)
		}
	}
}

func TestNaNCellsSkipped(t *testing.T) {
	g, vals := sphereField(16)
	nanVals := make([]float32, len(vals))
	copy(nanVals, vals)
	// Poison one corner far from the r=5 shell: contour unchanged.
	nanVals[g.PointIndex(0, 0, 0)] = float32(math.NaN())
	a, err := MarchingTetrahedra(g, vals, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarchingTetrahedra(g, nanVals, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("NaN far from surface changed the contour")
	}
	// All-NaN: no geometry, no panic.
	for i := range nanVals {
		nanVals[i] = float32(math.NaN())
	}
	m, err := MarchingTetrahedra(g, nanVals, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTriangles() != 0 {
		t.Error("all-NaN field produced geometry")
	}
}

func TestMeshEqual(t *testing.T) {
	a := &Mesh{
		Vertices: []grid.Vec3{{X: 1}, {Y: 1}, {Z: 1}},
		Tris:     [][3]int32{{0, 1, 2}},
	}
	b := &Mesh{
		Vertices: []grid.Vec3{{X: 1}, {Y: 1}, {Z: 1}},
		Tris:     [][3]int32{{0, 1, 2}},
	}
	if !a.Equal(b) {
		t.Error("identical meshes not equal")
	}
	b.Tris[0][2] = 1
	if a.Equal(b) {
		t.Error("different tris equal")
	}
	b.Tris[0][2] = 2
	b.Vertices[0].X = 2
	if a.Equal(b) {
		t.Error("different verts equal")
	}
	if a.Equal(&Mesh{}) {
		t.Error("different sizes equal")
	}
}

// Kept: the edge-point metric is the paper's Fig. 6 selectivity measure, off every fetch path, so no benchmark workload or traced layer runs it.
func BenchmarkInterestingEdgePoints64(b *testing.B) {
	g, vals := sphereField(64)
	b.SetBytes(int64(4 * len(vals)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := InterestingEdgePoints(g, vals, []float64{20}); err != nil {
			b.Fatal(err)
		}
	}
}
