package contour

import (
	"math"
	"slices"
	"sync"
	"testing"

	"vizndp/internal/grid"
	"vizndp/internal/sim"
)

// The fuzz field's values come from a small palette, so row bounds,
// isovalues and range bounds coincide often: the cases where a pair test
// off by one comparison would drop a pair that holds a selected cell.
var (
	fuzzPalette = [8]float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, 0.25, 0.5, 0.75, 1}
	fuzzIsos    = [8]float64{0, 0.25, 0.5, 0.75, 1, 0.3, -1, 2}
	fuzzBounds  = [8]float64{math.Inf(-1), 0, 0.25, 0.5, 0.75, 1, 0.6, math.Inf(1)}
)

// fuzzField builds an nx x ny x nz field (nz == 1 is 2-D) from data, cycled
// through the palette. rowMode gives row r two bits, (r mod 32): 1 makes
// the row constant at its first value, 2 makes it all NaN.
func fuzzField(nx, ny, nz int, rowMode uint64, data []byte) (*grid.Uniform, []float32) {
	g := grid.NewUniform(nx, ny, nz)
	vals := make([]float32, g.NumPoints())
	if len(data) == 0 {
		data = []byte{3}
	}
	for r := 0; r < ny*nz; r++ {
		row := vals[r*nx : (r+1)*nx]
		for i := range row {
			row[i] = fuzzPalette[data[(r*nx+i)%len(data)]%8]
		}
		switch (rowMode >> (2 * (r % 32))) & 3 {
		case 1:
			for i := range row {
				row[i] = row[0]
			}
		case 2:
			for i := range row {
				row[i] = float32(math.NaN())
			}
		}
	}
	return g, vals
}

// FuzzSelectRowRanges holds the summarized select to the unsummarized
// one, word for word, for contours and ranges, and both to the per-cell
// references; and the summary itself to a per-row min/max over non-NaN
// values. Inputs: rows of 1..130 points (across word boundaries), 3-D
// grids (and the 2-D ones both selects refuse), NaN, ±Inf, constant and
// all-NaN rows, isovalues equal to a row's min or max, and ranges with
// lo == hi at a row bound.
func FuzzSelectRowRanges(f *testing.F) {
	const (
		allConst = 0x5555555555555555
		allNaN   = 0xAAAAAAAAAAAAAAAA
		mixed    = 0x9C6C9C6C2D1E2D1E
	)
	data := []byte{3, 4, 5, 6, 7, 3, 0, 4, 7, 1, 5, 2, 6}
	for _, nx := range []int{1, 2, 63, 64, 65, 128, 130} {
		for _, dims := range [][2]int{{5, 4}, {6, 1}, {2, 2}, {1, 3}} {
			for _, mode := range []uint64{0, allConst, allNaN, mixed} {
				// iso 0.5 (a palette value: some row's min or max), two
				// isovalues 0 and 1, and ranges [0.5, 0.5] and [-Inf, 0.25].
				f.Add(uint8(nx-1), uint8(dims[0]-1), uint8(dims[1]-1), mode, uint8(2), uint8(0), uint8(3), uint8(3), data)
				f.Add(uint8(nx-1), uint8(dims[0]-1), uint8(dims[1]-1), mode, uint8(0), uint8(8+4), uint8(0), uint8(2), data)
			}
		}
	}
	f.Fuzz(func(t *testing.T, nxb, nyb, nzb uint8, rowMode uint64, isoA, isoB, loB, hiB uint8, data []byte) {
		nx, ny, nz := 1+int(nxb)%130, 1+int(nyb)%6, 1+int(nzb)%4
		g, vals := fuzzField(nx, ny, nz, rowMode, data)
		s, err := SummarizeRows(g, vals)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < ny*nz; r++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range vals[r*nx : (r+1)*nx] {
				if !isNaN32(v) {
					lo, hi = math.Min(lo, float64(v)), math.Max(hi, float64(v))
				}
			}
			if math.Float32bits(s.lo[r]) != math.Float32bits(float32(lo)) ||
				math.Float32bits(s.hi[r]) != math.Float32bits(float32(hi)) {
				t.Fatalf("row %d: summary [%v, %v], want [%v, %v]", r, s.lo[r], s.hi[r], lo, hi)
			}
		}

		isos := []float64{fuzzIsos[isoA%8]}
		if isoB&8 != 0 {
			isos = append(isos, fuzzIsos[isoB%8])
		}
		lo, hi := fuzzBounds[loB%8], fuzzBounds[hiB%8]
		if lo > hi {
			lo, hi = hi, lo
		}
		if nz == 1 {
			// A 2-D grid has no cell layer: both selects refuse it.
			if _, err := s.SelectCellCorners(g, vals, isos); err == nil {
				t.Fatalf("%v: contour select accepted a 2-D grid", g.Dims)
			}
			if _, err := s.SelectRangeCorners(g, vals, lo, hi); err == nil {
				t.Fatalf("%v: range select accepted a 2-D grid", g.Dims)
			}
			return
		}
		full, err := SelectCellCorners(g, vals, isos)
		if err != nil {
			t.Fatal(err)
		}
		sum, err := s.SelectCellCorners(g, vals, isos)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sum.Words(), full.Words()) {
			t.Fatalf("%v isos %v: summarized contour select %d points, full %d", g.Dims, isos, sum.Count(), full.Count())
		}
		if ref := selectCellCornersGeneric(g, vals, isos); !slices.Equal(full.Words(), ref.Words()) {
			t.Fatalf("%v isos %v: contour select %d points, reference %d", g.Dims, isos, full.Count(), ref.Count())
		}

		full, err = SelectRangeCorners(g, vals, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		sum, err = s.SelectRangeCorners(g, vals, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sum.Words(), full.Words()) {
			t.Fatalf("%v [%v, %v]: summarized range select %d points, full %d", g.Dims, lo, hi, sum.Count(), full.Count())
		}
		if ref := selectRangeReference(g, vals, lo, hi); !slices.Equal(full.Words(), ref.Words()) {
			t.Fatalf("%v [%v, %v]: range select %d points, reference %d", g.Dims, lo, hi, full.Count(), ref.Count())
		}
	})
}

// TestRowRangesWrongGrid: a summary is refused on a grid it was not built
// for, rather than judging the wrong rows.
func TestRowRangesWrongGrid(t *testing.T) {
	g, vals := sphereField(8)
	s, err := SummarizeRows(g, vals)
	if err != nil {
		t.Fatal(err)
	}
	other := grid.NewUniform(16, 4, 8)
	if _, err := s.SelectCellCorners(other, vals, []float64{3}); err == nil {
		t.Error("contour select accepted a summary of another grid")
	}
	if _, err := s.SelectRangeCorners(other, vals, 2, 3); err == nil {
		t.Error("range select accepted a summary of another grid")
	}
	if _, err := SummarizeRows(g, vals[1:]); err == nil {
		t.Error("summary of a short array accepted")
	}
}

// TestSelectConcurrentPooled runs summarized and full selects over two
// grid shapes from several goroutines at once: the sweep's bit matrices
// come from a shared pool, uncleared, so a buffer handed to two passes or
// sized for another grid would show here as a wrong mask (or, under
// -race, a race).
func TestSelectConcurrentPooled(t *testing.T) {
	type input struct {
		g    *grid.Uniform
		vals []float32
		s    *RowRanges
		want [2][]uint64 // contour, range
	}
	var ins []input
	for i, dims := range [][3]int{{70, 9, 6}, {130, 5, 2}} {
		g, vals := fuzzField(dims[0], dims[1], dims[2], 0x9C6C9C6C2D1E2D1E, []byte{byte(i), 4, 5, 6, 7, 3, 0, 4, 7, 1, 5, 2, 6})
		s, err := SummarizeRows(g, vals)
		if err != nil {
			t.Fatal(err)
		}
		c, err := SelectCellCorners(g, vals, []float64{0.5})
		if err != nil {
			t.Fatal(err)
		}
		r, err := SelectRangeCorners(g, vals, 0.25, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, input{g, vals, s, [2][]uint64{c.Words(), r.Words()}})
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				in := ins[(w+i)%len(ins)]
				s := in.s
				if i%2 == 1 {
					s = nil
				}
				c, err := s.SelectCellCorners(in.g, in.vals, []float64{0.5})
				if err != nil {
					t.Error(err)
					return
				}
				r, err := s.SelectRangeCorners(in.g, in.vals, 0.25, 0.5)
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(c.Words(), in.want[0]) || !slices.Equal(r.Words(), in.want[1]) {
					t.Errorf("%v: concurrent select differs from the serial one", in.g.Dims)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// selectBench is the benchmark's inputs: the bench's asteroid arrays at
// 128³, seed 1, its three steps, v02 and v03, each with its summary.
var selectBench struct {
	once   sync.Once
	g      *grid.Uniform
	arrays [][]float32
	sums   []*RowRanges
	err    error
}

func loadSelectBench() error {
	selectBench.once.Do(func() {
		cfg := sim.AsteroidConfig{N: 128, Seed: 1}
		for _, step := range cfg.Timesteps(3) {
			ds, err := cfg.Generate(step)
			if err != nil {
				selectBench.err = err
				return
			}
			selectBench.g = ds.Grid
			for _, name := range []string{"v02", "v03"} {
				vals := ds.Field(name).Values
				s, err := SummarizeRows(ds.Grid, vals)
				if err != nil {
					selectBench.err = err
					return
				}
				selectBench.arrays = append(selectBench.arrays, vals)
				selectBench.sums = append(selectBench.sums, s)
			}
		}
	})
	return selectBench.err
}

// BenchmarkSelectCellCorners measures one single-isovalue select over a
// cached array, cycling through the bench's six asteroid arrays and the
// isovalues 0.1..0.9: full is the unsummarized sweep, summarized the
// sweep over the pairs the row summary leaves live, and summarize the
// summary's one-off cost per array.
func BenchmarkSelectCellCorners(b *testing.B) {
	if err := loadSelectBench(); err != nil {
		b.Fatal(err)
	}
	g, arrays, sums := selectBench.g, selectBench.arrays, selectBench.sums
	cases := len(arrays) * 9
	iso := func(i int) []float64 { return []float64{float64(i%9+1) / 10} }
	for _, bc := range []struct {
		name string
		s    func(i int) *RowRanges
	}{
		{"full", func(int) *RowRanges { return nil }},
		{"summarized", func(i int) *RowRanges { return sums[i/9] }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(4 * g.NumPoints()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := i % cases
				if _, err := bc.s(c).SelectCellCorners(g, arrays[c/9], iso(c)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("summarize", func(b *testing.B) {
		b.SetBytes(int64(4 * g.NumPoints()))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := SummarizeRows(g, arrays[i%len(arrays)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
