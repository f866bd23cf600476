package contour

import (
	"math"
	"math/rand"
	"testing"

	"vizndp/internal/grid"
)

// NaN is load-bearing in this package. NaN is a value; absence is a
// bit. The contour kernel skips a cell with a NaN corner, and reads an
// absent corner's side from its neighbours. So the edge selection ships
// the NaN corners of every cell whose non-NaN corners straddle an
// isovalue: those are the cells the sparse march could otherwise mark
// and the full-array march skips. The cell-corner selection never ships
// a NaN. The range selection ships the NaN corners of kept cells, and a
// NaN never satisfies a range, so a shipped NaN and an absent point
// evaluate alike. Either way the sparse result equals the full-array
// one. These tests pin those rules.

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

// TestSelectNaNConsistency checks that on NaN-laced fields the bit-row
// sweep agrees with the scalar references under both rules, that the
// cell-corner rule never selects a NaN, and that every NaN the edge rule
// selects is a corner of a cell whose non-NaN corners straddle.
func TestSelectNaNConsistency(t *testing.T) {
	grids := []*grid.Uniform{
		grid.NewUniform(19, 13, 7),
		grid.NewUniform(70, 5, 3),
	}
	isos := []float64{2.5, 7}
	for gi, g := range grids {
		vals := nanLaced(g, int64(gi+1))
		if !selectMatchesGeneric(t, g, vals, isos) {
			t.Fatalf("grid %d: fast path and generic disagree", gi)
		}
		cells, err := (*RowRanges)(nil).SelectContour(g, vals, isos, RuleCells)
		if err != nil {
			t.Fatal(err)
		}
		edges, err := SelectCellCorners(g, vals, isos)
		if err != nil {
			t.Fatal(err)
		}
		if cells.Count() == 0 || edges.Count() == 0 {
			t.Fatalf("grid %d: empty selection, test is vacuous", gi)
		}
		nans := 0
		for i := 0; i < g.NumPoints(); i++ {
			if !isNaN32(vals[i]) {
				continue
			}
			if cells.Get(i) {
				t.Fatalf("grid %d: NaN point %d selected by the cell rule", gi, i)
			}
			if edges.Get(i) {
				nans++
				if !nanCornerOfLiveCell(g, vals, isos, i) {
					t.Fatalf("grid %d: NaN point %d selected, but no cell of it straddles", gi, i)
				}
			}
		}
		if nans == 0 {
			t.Fatalf("grid %d: the edge rule shipped no NaN, test is vacuous", gi)
		}
	}
}

// nanCornerOfLiveCell reports whether point p is a corner of a cell whose
// non-NaN corners straddle one of isos.
func nanCornerOfLiveCell(g *grid.Uniform, vals []float32, isos []float64, p int) bool {
	nx, ny := g.Dims.X, g.Dims.Y
	pi, pj, pk := p%nx, p/nx%ny, p/(nx*ny)
	for c := 0; c < 8; c++ {
		i, j, k := pi-c&1, pj-c>>1&1, pk-c>>2&1
		if i < 0 || j < 0 || k < 0 || i >= nx-1 || j >= ny-1 || k >= g.Dims.Z-1 {
			continue
		}
		for _, iso := range isos {
			below, above := false, false
			for d := 0; d < 8; d++ {
				v := vals[g.PointIndex(i+d&1, j+d>>1&1, k+d>>2&1)]
				below = below || float64(v) < iso
				above = above || float64(v) >= iso
			}
			if below && above {
				return true
			}
		}
	}
	return false
}

// TestNaNMaskedContourEquivalence is the decode-boundary invariant the
// post-filter relies on: on a NaN-laced field, the sparse march over the
// edge selection — with every unselected slot holding NaN, or anything
// else — builds the mesh the dense march builds from the whole field.
func TestNaNMaskedContourEquivalence(t *testing.T) {
	isos := []float64{3, 6.5}

	g3 := grid.NewUniform(15, 12, 9)
	vals := nanLaced(g3, 3)
	mask, err := SelectCellCorners(g3, vals, isos)
	if err != nil {
		t.Fatal(err)
	}
	full, err := MarchingTetrahedra(g3, vals, isos)
	if err != nil {
		t.Fatal(err)
	}
	if full.NumTriangles() == 0 {
		t.Fatal("empty full contour, test is vacuous")
	}
	for _, fill := range []float32{nan32(), 0, 5} {
		masked := make([]float32, len(vals))
		for i := range masked {
			if mask.Get(i) {
				masked[i] = vals[i]
			} else {
				masked[i] = fill
			}
		}
		sparse, err := MarchingCubesSparse(g3, masked, mask, isos)
		if err != nil {
			t.Fatal(err)
		}
		if !full.Equal(sparse) {
			t.Errorf("fill %v: masked selection contours differently than the full array", fill)
		}
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

	// One cell: a NaN corner beside an in-range corner keeps the cell,
	// and the selection ships all eight corners, the NaN among them.
	g1 := grid.NewUniform(2, 2, 2)
	one := []float32{nan32(), 5, 20, 20, 20, 20, 20, 20}
	if cells, err := ThresholdCells(g1, one, 0, 10); err != nil {
		t.Fatal(err)
	} else if cells.Count() != 1 {
		t.Errorf("NaN corner suppressed an any-corner threshold cell: %d kept", cells.Count())
	}
	if sel, err := SelectRangeCorners(g1, one, 0, 10); err != nil {
		t.Fatal(err)
	} else if sel.Count() != 8 || !sel.Get(0) {
		t.Errorf("kept cell shipped %d of 8 corners (NaN corner shipped: %v)", sel.Count(), sel.Get(0))
	}
	// All corners NaN or out of range: dropped, and nothing ships.
	none := []float32{nan32(), 20, nan32(), 20, 20, nan32(), 20, 20}
	if cells, err := ThresholdCells(g1, none, 0, 10); err != nil {
		t.Fatal(err)
	} else if cells.Count() != 0 {
		t.Errorf("cell with no in-range corner kept: %d", cells.Count())
	}
	if sel, err := SelectRangeCorners(g1, none, 0, 10); err != nil {
		t.Fatal(err)
	} else if sel.Count() != 0 {
		t.Errorf("dropped cell shipped %d corners", sel.Count())
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
