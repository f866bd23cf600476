package contour

import (
	"math"
	"math/rand"
	"testing"

	"vizndp/internal/grid"
)

// NaN is load-bearing in this package: it is the sentinel the NDP
// reconstruction uses for "value withheld by the pre-filter", so every
// selection and filter path must agree that a NaN point is never
// selected, never straddles, and never satisfies a range. If any path
// selected NaN points, the sparse reconstruction could not tell withheld
// data from real data and bit-identity with the full-array run would
// break. These tests pin that invariant across all paths.

func nan32() float32 { return float32(math.NaN()) }

// TestStraddlesNaNTable is the edge-classification truth table,
// including NaN endpoints.
func TestStraddlesNaNTable(t *testing.T) {
	cases := []struct {
		name   string
		va, vb float32
		iso    float64
		want   bool
	}{
		{"below-above", 1, 2, 1.5, true},
		{"above-below", 2, 1, 1.5, true},
		{"both-below", 1, 1.2, 1.5, false},
		{"both-above", 2, 3, 1.5, false},
		// Inside = value < iso: a value exactly AT the isovalue is
		// outside, so (iso, above) does not straddle but (below, iso) does.
		{"at-iso-above", 1.5, 2, 1.5, false},
		{"below-at-iso", 1, 1.5, 1.5, true},
		// NaN endpoints never straddle, regardless of the other endpoint.
		{"nan-above", nan32(), 2, 1.5, false},
		{"below-nan", 1, nan32(), 1.5, false},
		{"nan-nan", nan32(), nan32(), 1.5, false},
		// Infinities are ordinary ordered values.
		{"below-inf", 1, float32(math.Inf(1)), 1.5, true},
		{"neginf-below", float32(math.Inf(-1)), 1, 1.5, false},
	}
	for _, tc := range cases {
		if got := straddles(tc.va, tc.vb, tc.iso); got != tc.want {
			t.Errorf("%s: straddles(%v, %v, %v) = %v, want %v", tc.name, tc.va, tc.vb, tc.iso, got, tc.want)
		}
	}
}

// TestCellStraddlesNaN pins the cell rule: ANY NaN corner disqualifies
// the whole cell, even when the remaining corners straddle.
func TestCellStraddlesNaN(t *testing.T) {
	vals := []float32{0, 10, 0, 10, 0, 10, 0, 10}
	corners := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if !cellStraddles(vals, corners, []float64{5}) {
		t.Fatal("clean straddling cell not selected")
	}
	for i := range vals {
		laced := append([]float32(nil), vals...)
		laced[i] = nan32()
		if cellStraddles(laced, corners, []float64{5}) {
			t.Errorf("cell with NaN corner %d selected", i)
		}
	}
}

// nanLaced builds a deterministic random field with scattered NaNs.
func nanLaced(g *grid.Uniform, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float32, g.NumPoints())
	for i := range vals {
		if rng.Intn(10) == 0 {
			vals[i] = nan32()
		} else {
			vals[i] = rng.Float32() * 10
		}
	}
	return vals
}

// TestSelectNaNConsistency checks that on NaN-laced fields all three
// selection implementations (2D path, 3D bit-parallel path, generic
// reference) agree, per-isovalue splitting still unions exactly, and no
// NaN-valued point is ever selected.
func TestSelectNaNConsistency(t *testing.T) {
	grids := []*grid.Uniform{
		grid.NewUniform(23, 17, 1), // 2D path
		grid.NewUniform(19, 13, 7), // 3D bit-parallel path
	}
	isos := []float64{2.5, 7}
	for gi, g := range grids {
		vals := nanLaced(g, int64(gi+1))
		mask, err := SelectCellCorners(g, vals, isos)
		if err != nil {
			t.Fatal(err)
		}
		if mask.Count() == 0 {
			t.Fatalf("grid %d: empty selection, test is vacuous", gi)
		}
		if !g.Is2D() {
			// The generic per-cell reference only walks 3D cell layers;
			// the 2D path IS the straightforward loop already.
			ref := selectCellCornersGeneric(g, vals, isos)
			for i := 0; i < g.NumPoints(); i++ {
				if mask.Get(i) != ref.Get(i) {
					t.Fatalf("grid %d: fast path and generic disagree at point %d", gi, i)
				}
			}
		}
		for i := 0; i < g.NumPoints(); i++ {
			if mask.Get(i) && isNaN32(vals[i]) {
				t.Fatalf("grid %d: NaN point %d selected", gi, i)
			}
		}
	}
}

// TestNaNMaskedContourEquivalence is the decode-boundary invariant the
// NDP reconstruction relies on: replacing every UNSELECTED point with
// NaN changes nothing about the contour, because the selection already
// carries every cell able to emit geometry and NaN-laced cells emit
// nothing either way.
func TestNaNMaskedContourEquivalence(t *testing.T) {
	isos := []float64{3, 6.5}

	g3 := grid.NewUniform(15, 12, 9)
	vals := nanLaced(g3, 3)
	mask, err := SelectCellCorners(g3, vals, isos)
	if err != nil {
		t.Fatal(err)
	}
	masked := make([]float32, len(vals))
	for i := range masked {
		if mask.Get(i) {
			masked[i] = vals[i]
		} else {
			masked[i] = nan32()
		}
	}
	full, err := MarchingTetrahedra(g3, vals, isos)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := MarchingTetrahedra(g3, masked, isos)
	if err != nil {
		t.Fatal(err)
	}
	if full.NumTriangles() == 0 {
		t.Fatal("empty full contour, test is vacuous")
	}
	if !full.Equal(sparse) {
		t.Error("3D: masked reconstruction contours differently than full array")
	}

	g2 := grid.NewUniform(25, 19, 1)
	vals2 := nanLaced(g2, 4)
	mask2, err := SelectCellCorners(g2, vals2, isos)
	if err != nil {
		t.Fatal(err)
	}
	masked2 := make([]float32, len(vals2))
	for i := range masked2 {
		if mask2.Get(i) {
			masked2[i] = vals2[i]
		} else {
			masked2[i] = nan32()
		}
	}
	fullLines, err := MarchingSquares(g2, vals2, isos)
	if err != nil {
		t.Fatal(err)
	}
	sparseLines, err := MarchingSquares(g2, masked2, isos)
	if err != nil {
		t.Fatal(err)
	}
	if fullLines.NumSegments() == 0 {
		t.Fatal("empty full line set, test is vacuous")
	}
	if fullLines.NumSegments() != sparseLines.NumSegments() {
		t.Errorf("2D: %d segments full vs %d sparse", fullLines.NumSegments(), sparseLines.NumSegments())
	}
}

// TestRangeNaNBehavior pins the threshold filter's NaN rules: a NaN
// corner never satisfies the range but does not suppress its cell (the
// filter is any-corner, unlike the contour's all-corner NaN veto), the
// selection ships kept cells whole — NaN corners included — and sparse
// evaluation over the masked array returns the identical cell set.
func TestRangeNaNBehavior(t *testing.T) {
	if inRange(nan32(), 0, 10) {
		t.Fatal("NaN in range")
	}
	if !inRange(5, 0, 10) || inRange(11, 0, 10) {
		t.Fatal("inRange broken on ordinary values")
	}

	// One 2D cell: NaN corner beside an in-range corner keeps the cell.
	g1 := grid.NewUniform(2, 2, 1)
	if cells, err := ThresholdCells(g1, []float32{nan32(), 5, 20, 20}, 0, 10); err != nil {
		t.Fatal(err)
	} else if cells.Count() != 1 {
		t.Errorf("NaN corner suppressed an any-corner threshold cell: %d kept", cells.Count())
	}
	// All corners NaN or out of range: dropped.
	if cells, err := ThresholdCells(g1, []float32{nan32(), 20, nan32(), 20}, 0, 10); err != nil {
		t.Fatal(err)
	} else if cells.Count() != 0 {
		t.Errorf("cell with no in-range corner kept: %d", cells.Count())
	}

	// Sparse evaluation equivalence on a NaN-laced field.
	g := grid.NewUniform(17, 14, 6)
	vals := nanLaced(g, 5)
	lo, hi := 2.0, 4.0
	full, err := ThresholdCells(g, vals, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := SelectRangeCorners(g, vals, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	masked := make([]float32, len(vals))
	for i := range masked {
		if sel.Get(i) {
			masked[i] = vals[i] // NaN corners of kept cells ship as NaN
		} else {
			masked[i] = nan32()
		}
	}
	sparse, err := ThresholdCells(g, masked, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if full.Count() == 0 {
		t.Fatal("empty threshold result, test is vacuous")
	}
	if !full.Equal(sparse) {
		t.Error("sparse threshold evaluation differs from full array")
	}
}
