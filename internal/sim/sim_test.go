package sim

import (
	"math"
	"testing"

	"vizndp/internal/compress"
	"vizndp/internal/contour"
	"vizndp/internal/vtkio"
)

// small test configs keep CI fast.
func testAsteroid() AsteroidConfig { return AsteroidConfig{N: 48, Seed: 7} }
func testNyx() NyxConfig           { return NyxConfig{N: 48, Seed: 13} }

func TestAsteroidArrays(t *testing.T) {
	ds, err := testAsteroid().Generate(0)
	if err != nil {
		t.Fatal(err)
	}
	names := ds.FieldNames()
	if len(names) != 11 {
		t.Fatalf("arrays = %d, want 11", len(names))
	}
	for i, want := range AsteroidArrayNames {
		if names[i] != want {
			t.Errorf("array %d = %q, want %q", i, names[i], want)
		}
	}
	if ds.Grid.NumPoints() != 48*48*48 {
		t.Errorf("points = %d", ds.Grid.NumPoints())
	}
}

func TestAsteroidFractionsInRange(t *testing.T) {
	cfg := testAsteroid()
	for _, step := range []int{0, AsteroidMaxStep / 2, AsteroidMaxStep} {
		ds, err := cfg.Generate(step)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"v02", "v03"} {
			lo, hi := ds.Field(name).Range()
			if lo < 0 || hi > 1 {
				t.Errorf("step %d %s range = [%v,%v], want within [0,1]", step, name, lo, hi)
			}
			if hi < 0.99 {
				t.Errorf("step %d %s max = %v; interior should reach ~1", step, name, hi)
			}
		}
		// Water plus asteroid never exceeds unity.
		v02 := ds.Field("v02").Values
		v03 := ds.Field("v03").Values
		for i := range v02 {
			if v02[i]+v03[i] > 1.0001 {
				t.Fatalf("step %d: v02+v03 = %v at %d", step, v02[i]+v03[i], i)
			}
		}
	}
}

func TestAsteroidMatIDs(t *testing.T) {
	ds, err := testAsteroid().Generate(0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float32]bool{}
	for _, v := range ds.Field("mat").Values {
		if v != 1 && v != 2 && v != 3 {
			t.Fatalf("mat = %v, want 1, 2, or 3", v)
		}
		seen[v] = true
	}
	if !seen[1] || !seen[2] || !seen[3] {
		t.Errorf("not all materials present: %v", seen)
	}
}

func TestAsteroidGrdLevels(t *testing.T) {
	ds, err := testAsteroid().Generate(AsteroidMaxStep / 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ds.Field("grd").Values {
		if v != float32(math.Trunc(float64(v))) || v < 1 || v > 4 {
			t.Fatalf("grd = %v, want integer in [1,4]", v)
		}
	}
}

func TestAsteroidDeterministic(t *testing.T) {
	cfg := testAsteroid()
	a, err := cfg.Generate(24006)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Generate(24006)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range AsteroidArrayNames {
		av, bv := a.Field(name).Values, b.Field(name).Values
		for i := range av {
			if math.Float32bits(av[i]) != math.Float32bits(bv[i]) {
				t.Fatalf("%s differs at %d between identical runs", name, i)
			}
		}
	}
	// A different seed must differ.
	cfg2 := cfg
	cfg2.Seed++
	c, err := cfg2.Generate(24006)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	av, cv := a.Field("v02").Values, c.Field("v02").Values
	for i := range av {
		if av[i] != cv[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical v02")
	}
}

func TestAsteroidTimesteps(t *testing.T) {
	steps := testAsteroid().Timesteps(9)
	if len(steps) != 9 || steps[0] != 0 || steps[8] != AsteroidMaxStep {
		t.Errorf("timesteps = %v", steps)
	}
	for i := 1; i < len(steps); i++ {
		if steps[i] <= steps[i-1] {
			t.Errorf("timesteps not increasing: %v", steps)
		}
	}
	if got := testAsteroid().Timesteps(1); len(got) != 1 || got[0] != 0 {
		t.Errorf("Timesteps(1) = %v", got)
	}
}

func TestAsteroidErrors(t *testing.T) {
	if _, err := (AsteroidConfig{N: 4}).Generate(0); err == nil {
		t.Error("tiny grid accepted")
	}
	if _, err := testAsteroid().Generate(-1); err == nil {
		t.Error("negative step accepted")
	}
	if _, err := testAsteroid().Generate(AsteroidMaxStep + 1); err == nil {
		t.Error("out-of-range step accepted")
	}
}

// compressedSize returns the gzip-compressed byte size of a field.
func compressedSize(t *testing.T, vals []float32, kind compress.Kind) int {
	t.Helper()
	codec, err := compress.ByKind(kind)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := codec.Compress(vtkio.FloatsToBytes(vals))
	if err != nil {
		t.Fatal(err)
	}
	return len(enc)
}

func TestAsteroidCompressibilityDecays(t *testing.T) {
	// Fig. 5a/5d: compression ratio is highest at timestep 0 and decays
	// as the simulation progresses and entropy grows.
	cfg := testAsteroid()
	early, err := cfg.Generate(0)
	if err != nil {
		t.Fatal(err)
	}
	late, err := cfg.Generate(AsteroidMaxStep)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"v02", "v03"} {
		ce := compressedSize(t, early.Field(name).Values, compress.Gzip)
		cl := compressedSize(t, late.Field(name).Values, compress.Gzip)
		if cl <= ce {
			t.Errorf("%s: late compressed size %d <= early %d; entropy should grow",
				name, cl, ce)
		}
		raw := 4 * early.Grid.NumPoints()
		if ratio := float64(raw) / float64(ce); ratio < 5 {
			t.Errorf("%s at t0: gzip ratio %.1f, want substantial compression", name, ratio)
		}
	}
}

func TestAsteroidSelectivityTrends(t *testing.T) {
	cfg := testAsteroid()
	ds, err := cfg.Generate(0)
	if err != nil {
		t.Fatal(err)
	}

	selAt := func(name string, iso float64) float64 {
		mask, err := contour.SelectCellCorners(ds.Grid, ds.Field(name).Values, []float64{iso})
		if err != nil {
			t.Fatal(err)
		}
		return contour.Selectivity(mask)
	}

	// v03 (asteroid) selects fewer points than v02 (water): the asteroid
	// spans a smaller mesh space than the ocean.
	s02 := selAt("v02", 0.1)
	s03 := selAt("v03", 0.1)
	if s03 >= s02 {
		t.Errorf("selectivity v03 (%.5f) should be below v02 (%.5f)", s03, s02)
	}
	// Selectivity is small in absolute terms (orders of magnitude below 1).
	if s02 > 0.1 || s02 <= 0 {
		t.Errorf("v02 selectivity = %.5f, want small and positive", s02)
	}
	// Higher contour values select more points (Fig. 6 trend).
	if hi := selAt("v02", 0.9); hi <= s02 {
		t.Errorf("v02 selectivity at 0.9 (%.5f) should exceed 0.1 (%.5f)", hi, s02)
	}
}

func TestAsteroidImpactDisturbsSurface(t *testing.T) {
	// After impact, the ocean surface is disturbed, so the v02 contour
	// selects more points than the calm early ocean (Fig. 6a trend).
	cfg := testAsteroid()
	early, err := cfg.Generate(0)
	if err != nil {
		t.Fatal(err)
	}
	late, err := cfg.Generate(AsteroidMaxStep)
	if err != nil {
		t.Fatal(err)
	}
	me, err := contour.SelectCellCorners(early.Grid, early.Field("v02").Values, []float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	ml, err := contour.SelectCellCorners(late.Grid, late.Field("v02").Values, []float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	if ml.Count() <= me.Count() {
		t.Errorf("late v02 selection (%d) should exceed early (%d)", ml.Count(), me.Count())
	}
}

func TestAsteroidContoursNonEmpty(t *testing.T) {
	cfg := testAsteroid()
	for _, step := range cfg.Timesteps(3) {
		ds, err := cfg.Generate(step)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"v02", "v03"} {
			m, err := contour.MarchingTetrahedra(ds.Grid, ds.Field(name).Values, []float64{0.1})
			if err != nil {
				t.Fatal(err)
			}
			if m.NumTriangles() == 0 {
				t.Errorf("step %d %s: empty contour at 0.1", step, name)
			}
		}
	}
}

func TestNyxArrays(t *testing.T) {
	ds, err := testNyx().Generate()
	if err != nil {
		t.Fatal(err)
	}
	names := ds.FieldNames()
	if len(names) != 6 {
		t.Fatalf("arrays = %d, want 6", len(names))
	}
	for i, want := range NyxArrayNames {
		if names[i] != want {
			t.Errorf("array %d = %q, want %q", i, names[i], want)
		}
	}
}

func TestNyxHaloSelectivity(t *testing.T) {
	ds, err := testNyx().Generate()
	if err != nil {
		t.Fatal(err)
	}
	bd := ds.Field("baryon_density")
	lo, hi := bd.Range()
	if lo < 0 {
		t.Errorf("negative density %v", lo)
	}
	if hi < NyxHaloThreshold {
		t.Fatalf("max density %v below halo threshold; no halos formed", hi)
	}
	mask, err := contour.SelectCellCorners(ds.Grid, bd.Values, []float64{NyxHaloThreshold})
	if err != nil {
		t.Fatal(err)
	}
	sel := contour.Selectivity(mask)
	// Paper: 0.06%. Accept the same order of magnitude on a small grid.
	if sel <= 0 || sel > 0.02 {
		t.Errorf("halo contour selectivity = %.5f, want ~0.001", sel)
	}
}

func TestNyxPoorCompressibility(t *testing.T) {
	// The paper: gzip shaves only ~11% off Nyx. Require gzip to achieve
	// well under 2x on the baryon density.
	ds, err := testNyx().Generate()
	if err != nil {
		t.Fatal(err)
	}
	raw := 4 * ds.Grid.NumPoints()
	gz := compressedSize(t, ds.Field("baryon_density").Values, compress.Gzip)
	ratio := float64(raw) / float64(gz)
	if ratio > 2 {
		t.Errorf("nyx gzip ratio = %.2f, want < 2 (poorly compressible)", ratio)
	}
}

func TestNyxDeterministic(t *testing.T) {
	a, err := testNyx().Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := testNyx().Generate()
	if err != nil {
		t.Fatal(err)
	}
	av, bv := a.Field("baryon_density").Values, b.Field("baryon_density").Values
	for i := range av {
		if math.Float32bits(av[i]) != math.Float32bits(bv[i]) {
			t.Fatalf("baryon_density differs at %d", i)
		}
	}
}

func TestNyxErrors(t *testing.T) {
	if _, err := (NyxConfig{N: 2}).Generate(); err == nil {
		t.Error("tiny grid accepted")
	}
}

func TestNoiseProperties(t *testing.T) {
	// Bounded and deterministic.
	for i := 0; i < 1000; i++ {
		v := valueNoise(float64(i)*0.37, float64(i)*0.11, float64(i)*0.73, 8, 42)
		if v < 0 || v >= 1.0001 {
			t.Fatalf("valueNoise out of range: %v", v)
		}
	}
	a := fbm(1.5, 2.5, 3.5, 8, 3, 1)
	b := fbm(1.5, 2.5, 3.5, 8, 3, 1)
	if a != b {
		t.Error("fbm not deterministic")
	}
	if fbm(1.5, 2.5, 3.5, 8, 3, 2) == a {
		t.Error("fbm ignores seed")
	}
}

func TestNoiseContinuity(t *testing.T) {
	// Adjacent samples should differ by a small amount (smooth noise).
	prev := valueNoise(0, 5, 5, 16, 9)
	for i := 1; i <= 160; i++ {
		x := float64(i) * 0.1
		v := valueNoise(x, 5, 5, 16, 9)
		if math.Abs(v-prev) > 0.05 {
			t.Fatalf("noise jump %.3f at x=%.1f", math.Abs(v-prev), x)
		}
		prev = v
	}
}

// BenchmarkGenerate128 is the testbed's generate step alone at the
// benchmark's scale: the asteroid's last step and the nyx snapshot.
func BenchmarkGenerate128(b *testing.B) {
	for _, gen := range []struct {
		name string
		run  func() error
	}{
		{"asteroid", func() error {
			_, err := AsteroidConfig{N: 128, Seed: 1}.Generate(AsteroidMaxStep)
			return err
		}},
		{"nyx", func() error {
			_, err := NyxConfig{N: 128, Seed: 7}.Generate()
			return err
		}},
	} {
		b.Run(gen.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := gen.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
