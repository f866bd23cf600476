package grid

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDimsCounts(t *testing.T) {
	cases := []struct {
		d          Dims
		pts, cells int
	}{
		{Dims{1, 1, 1}, 1, 1},
		{Dims{2, 2, 2}, 8, 1},
		{Dims{8, 6, 1}, 48, 35}, // the paper's Fig. 3 2D example mesh
		{Dims{500, 500, 500}, 125_000_000, 499 * 499 * 499},
		{Dims{3, 4, 5}, 60, 2 * 3 * 4},
	}
	for _, c := range cases {
		if got := c.d.NumPoints(); got != c.pts {
			t.Errorf("%v points = %d, want %d", c.d, got, c.pts)
		}
		if got := c.d.NumCells(); got != c.cells {
			t.Errorf("%v cells = %d, want %d", c.d, got, c.cells)
		}
	}
}

func TestDimsValid(t *testing.T) {
	if !(Dims{1, 1, 1}).Valid() {
		t.Error("1x1x1 should be valid")
	}
	if (Dims{0, 1, 1}).Valid() || (Dims{1, -1, 1}).Valid() {
		t.Error("non-positive dims should be invalid")
	}
}

func TestPointIndexRoundTrip(t *testing.T) {
	g := NewUniform(7, 5, 3)
	seen := make(map[int]bool)
	for k := 0; k < 3; k++ {
		for j := 0; j < 5; j++ {
			for i := 0; i < 7; i++ {
				idx := g.PointIndex(i, j, k)
				if seen[idx] {
					t.Fatalf("duplicate index %d", idx)
				}
				seen[idx] = true
				ri, rj, rk := idx%7, idx/7%5, idx/35
				if ri != i || rj != j || rk != k {
					t.Fatalf("roundtrip (%d,%d,%d) -> %d -> (%d,%d,%d)",
						i, j, k, idx, ri, rj, rk)
				}
			}
		}
	}
	if len(seen) != g.NumPoints() {
		t.Fatalf("covered %d indices, want %d", len(seen), g.NumPoints())
	}
}

func TestPointIndexXFastest(t *testing.T) {
	g := NewUniform(4, 3, 2)
	if g.PointIndex(0, 0, 0) != 0 {
		t.Error("origin should map to 0")
	}
	if g.PointIndex(1, 0, 0) != 1 {
		t.Error("x should be the fastest-varying axis")
	}
	if g.PointIndex(0, 1, 0) != 4 {
		t.Error("y stride should be Nx")
	}
	if g.PointIndex(0, 0, 1) != 12 {
		t.Error("z stride should be Nx*Ny")
	}
}

func TestPointPosition(t *testing.T) {
	g := NewUniform(4, 4, 4)
	g.Origin = Vec3{10, 20, 30}
	g.Spacing = Vec3{0.5, 2, 1}
	p := g.PointPosition(2, 1, 3)
	want := Vec3{11, 22, 33}
	if p != want {
		t.Errorf("position = %+v, want %+v", p, want)
	}
}

func TestUniformValidate(t *testing.T) {
	g := NewUniform(4, 4, 4)
	if err := g.Validate(); err != nil {
		t.Errorf("valid grid rejected: %v", err)
	}
	g.Spacing.Y = 0
	if err := g.Validate(); err == nil {
		t.Error("zero spacing accepted")
	}
	g = NewUniform(0, 4, 4)
	if err := g.Validate(); err == nil {
		t.Error("zero dim accepted")
	}
}

func TestUniformCloneEqual(t *testing.T) {
	g := NewUniform(3, 3, 3)
	g.Origin = Vec3{1, 2, 3}
	c := *g
	if !g.Equal(&c) {
		t.Error("copy should compare equal")
	}
	c.Spacing.X = 9
	if g.Equal(&c) {
		t.Error("mutated copy should differ")
	}
}

func TestVec3Ops(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if got := a.Add(b); got != (Vec3{5, 7, 9}) {
		t.Errorf("Add = %+v", got)
	}
	if got := b.Sub(a); got != (Vec3{3, 3, 3}) {
		t.Errorf("Sub = %+v", got)
	}
	if got := a.Dot(b); got != 32 {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Scale(2); got != (Vec3{2, 4, 6}) {
		t.Errorf("Scale = %+v", got)
	}
	x := Vec3{1, 0, 0}
	y := Vec3{0, 1, 0}
	if got := x.Cross(y); got != (Vec3{0, 0, 1}) {
		t.Errorf("Cross = %+v", got)
	}
	if n := (Vec3{3, 4, 0}).Norm(); n != 5 {
		t.Errorf("Norm = %v", n)
	}
	u := (Vec3{0, 0, 7}).Normalize()
	if u != (Vec3{0, 0, 1}) {
		t.Errorf("Normalize = %+v", u)
	}
	if z := (Vec3{}).Normalize(); z != (Vec3{}) {
		t.Errorf("Normalize zero = %+v", z)
	}
}

func TestVec3CrossAnticommutative(t *testing.T) {
	clamp := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 1
		}
		return math.Mod(v, 1e6) // avoid overflow to Inf in the products
	}
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{clamp(ax), clamp(ay), clamp(az)}
		b := Vec3{clamp(bx), clamp(by), clamp(bz)}
		c1 := a.Cross(b)
		c2 := b.Cross(a)
		return c1 == c2.Scale(-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVec3CrossOrthogonal(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		// Keep magnitudes tame so float error stays bounded.
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 1
			}
			return math.Mod(v, 1e3)
		}
		a := Vec3{clamp(ax), clamp(ay), clamp(az)}
		b := Vec3{clamp(bx), clamp(by), clamp(bz)}
		c := a.Cross(b)
		scale := a.Norm() * b.Norm() * c.Norm()
		if scale == 0 {
			return true
		}
		return math.Abs(c.Dot(a))/scale < 1e-9 && math.Abs(c.Dot(b))/scale < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFieldRange(t *testing.T) {
	f := &Field{Name: "t", Values: []float32{3, -1, 7, 2}}
	lo, hi := f.Range()
	if lo != -1 || hi != 7 {
		t.Errorf("range = (%v,%v), want (-1,7)", lo, hi)
	}
}

func TestFieldRangeIgnoresNaN(t *testing.T) {
	nan := float32(math.NaN())
	f := &Field{Name: "t", Values: []float32{nan, 5, nan, 1}}
	lo, hi := f.Range()
	if lo != 1 || hi != 5 {
		t.Errorf("range = (%v,%v), want (1,5)", lo, hi)
	}
}

func TestFieldRangeEmpty(t *testing.T) {
	f := &Field{Name: "t"}
	lo, hi := f.Range()
	if lo != 0 || hi != 0 {
		t.Errorf("empty range = (%v,%v), want (0,0)", lo, hi)
	}
}

func TestDatasetAddSelect(t *testing.T) {
	g := NewUniform(2, 2, 2)
	d := NewDataset(g)
	for _, name := range []string{"v02", "v03", "rho"} {
		if err := d.AddField(NewField(name, g.NumPoints())); err != nil {
			t.Fatal(err)
		}
	}
	if d.NumFields() != 3 {
		t.Fatalf("NumFields = %d", d.NumFields())
	}
	got := d.FieldNames()
	want := []string{"v02", "v03", "rho"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FieldNames = %v, want %v", got, want)
		}
	}
}

func TestDatasetAddErrors(t *testing.T) {
	g := NewUniform(2, 2, 2)
	d := NewDataset(g)
	if err := d.AddField(NewField("short", 3)); err == nil {
		t.Error("mismatched length accepted")
	}
	if err := d.AddField(NewField("a", 8)); err != nil {
		t.Fatal(err)
	}
	if err := d.AddField(NewField("a", 8)); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestMustAddFieldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	d := NewDataset(NewUniform(2, 2, 2))
	d.MustAddField(NewField("bad", 1))
}
