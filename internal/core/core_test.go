package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vizndp/internal/bitset"
	"vizndp/internal/contour"
	"vizndp/internal/grid"
	"vizndp/internal/sim"
)

// randomSelection builds a mask/values pair with the given selectivity.
func randomSelection(n int, selectivity float64, seed int64) (*bitset.Bitset, []float32) {
	rng := rand.New(rand.NewSource(seed))
	mask := bitset.New(n)
	values := make([]float32, n)
	for i := range values {
		values[i] = rng.Float32()*2 - 1
		if rng.Float64() < selectivity {
			mask.Set(i)
		}
	}
	return mask, values
}

func checkRoundTrip(t *testing.T, mask *bitset.Bitset, values []float32, enc Encoding) *Payload {
	t.Helper()
	p, err := EncodeSelection(mask, values, enc)
	if err != nil {
		t.Fatalf("encode(%v): %v", enc, err)
	}
	decoded, err := DecodePayload(p.Data)
	if err != nil {
		t.Fatalf("decode(%v): %v", enc, err)
	}
	if decoded.NumPoints != mask.Len() || decoded.Count != mask.Count() {
		t.Fatalf("decoded header = %d/%d, want %d/%d",
			decoded.NumPoints, decoded.Count, mask.Len(), mask.Count())
	}
	got, err := decoded.Reconstruct()
	if err != nil {
		t.Fatalf("reconstruct(%v): %v", enc, err)
	}
	for i := range values {
		if mask.Get(i) {
			if got[i] != values[i] {
				t.Fatalf("%v: value %d = %v, want %v", enc, i, got[i], values[i])
			}
		} else if !math.IsNaN(float64(got[i])) {
			t.Fatalf("%v: unselected point %d = %v, want NaN", enc, i, got[i])
		}
	}
	return p
}

func TestPayloadRoundTripBothEncodings(t *testing.T) {
	for _, sel := range []float64{0, 0.001, 0.01, 0.2, 1.0} {
		mask, values := randomSelection(20_000, sel, 42)
		for _, enc := range []Encoding{EncIndexValue, EncBlockBitmap} {
			checkRoundTrip(t, mask, values, enc)
		}
	}
}

func TestPayloadSpecialValues(t *testing.T) {
	mask := bitset.New(8)
	values := []float32{
		0, float32(math.Inf(1)), -0, math.MaxFloat32,
		math.SmallestNonzeroFloat32, 1e-20, -5, 7,
	}
	for i := 0; i < 8; i += 2 {
		mask.Set(i)
	}
	for _, enc := range []Encoding{EncIndexValue, EncBlockBitmap} {
		checkRoundTrip(t, mask, values, enc)
	}
}

func TestPayloadTailBlock(t *testing.T) {
	// A size that is not a multiple of the 4096-point block, with bits in
	// the final partial block.
	n := 3*4096 + 100
	mask := bitset.New(n)
	values := make([]float32, n)
	for _, i := range []int{0, 4095, 4096, 8191, n - 2, n - 1} {
		mask.Set(i)
		values[i] = float32(i)
	}
	for _, enc := range []Encoding{EncIndexValue, EncBlockBitmap} {
		checkRoundTrip(t, mask, values, enc)
	}
}

func TestAutoEncodingSwitches(t *testing.T) {
	sparseMask, sparseVals := randomSelection(100_000, 0.001, 1)
	p, err := EncodeSelection(sparseMask, sparseVals, EncAuto)
	if err != nil {
		t.Fatal(err)
	}
	if p.Encoding != EncIndexValue {
		t.Errorf("sparse auto = %v, want indexvalue", p.Encoding)
	}
	denseMask, denseVals := randomSelection(100_000, 0.2, 2)
	p, err = EncodeSelection(denseMask, denseVals, EncAuto)
	if err != nil {
		t.Fatal(err)
	}
	if p.Encoding != EncBlockBitmap {
		t.Errorf("dense auto = %v, want blockbitmap", p.Encoding)
	}
}

func TestEncodingSizeTradeoff(t *testing.T) {
	// The DESIGN.md ablation claim: index/value wins at very low
	// selectivity, block bitmap wins at high selectivity.
	lowMask, lowVals := randomSelection(200_000, 0.0005, 3)
	pl, _ := EncodeSelection(lowMask, lowVals, EncIndexValue)
	pb, _ := EncodeSelection(lowMask, lowVals, EncBlockBitmap)
	if pl.WireSize() >= pb.WireSize() {
		t.Errorf("low selectivity: indexvalue %d >= blockbitmap %d",
			pl.WireSize(), pb.WireSize())
	}
	hiMask, hiVals := randomSelection(200_000, 0.3, 4)
	pl, _ = EncodeSelection(hiMask, hiVals, EncIndexValue)
	pb, _ = EncodeSelection(hiMask, hiVals, EncBlockBitmap)
	if pb.WireSize() >= pl.WireSize() {
		t.Errorf("high selectivity: blockbitmap %d >= indexvalue %d",
			pb.WireSize(), pl.WireSize())
	}
}

func TestPayloadMuchSmallerThanRaw(t *testing.T) {
	mask, values := randomSelection(1_000_000, 0.001, 5)
	p, err := EncodeSelection(mask, values, EncAuto)
	if err != nil {
		t.Fatal(err)
	}
	raw := 4 * len(values)
	if p.WireSize() > raw/50 {
		t.Errorf("payload %d bytes vs raw %d; want orders-of-magnitude smaller",
			p.WireSize(), raw)
	}
	if s := p.Selectivity(); s < 0.0005 || s > 0.002 {
		t.Errorf("selectivity = %v", s)
	}
}

func TestEncodeSelectionMismatch(t *testing.T) {
	if _, err := EncodeSelection(bitset.New(10), make([]float32, 11), EncAuto); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestDecodePayloadRejectsGarbage(t *testing.T) {
	if _, err := DecodePayload(nil); err == nil {
		t.Error("nil accepted")
	}
	if _, err := DecodePayload([]byte{1, 2, 3, 4}); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := DecodePayload([]byte{payloadMagic, 99, 1, 1}); err == nil {
		t.Error("bad encoding accepted")
	}
}

func TestPayloadTruncationFuzz(t *testing.T) {
	mask, values := randomSelection(5000, 0.05, 6)
	for _, enc := range []Encoding{EncIndexValue, EncBlockBitmap} {
		p, err := EncodeSelection(mask, values, enc)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(p.Data); cut += 7 {
			trunc, err := DecodePayload(p.Data[:cut])
			if err != nil {
				continue
			}
			if _, err := trunc.Reconstruct(); err == nil &&
				trunc.Count == p.Count && cut < len(p.Data) {
				t.Fatalf("%v: truncation to %d bytes reconstructed silently", enc, cut)
			}
		}
	}
}

func TestPayloadBitFlipNoPanic(t *testing.T) {
	mask, values := randomSelection(5000, 0.05, 7)
	rng := rand.New(rand.NewSource(8))
	for _, enc := range []Encoding{EncIndexValue, EncBlockBitmap} {
		p, err := EncodeSelection(mask, values, enc)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 300; trial++ {
			corrupted := bytes.Clone(p.Data)
			corrupted[rng.Intn(len(corrupted))] ^= 1 << rng.Intn(8)
			dp, err := DecodePayload(corrupted)
			if err != nil {
				continue
			}
			_, _ = dp.Reconstruct() // must not panic
		}
	}
}

func TestQuickPayloadRoundTrip(t *testing.T) {
	f := func(bits []uint16, raw []byte) bool {
		n := 1 << 14
		mask := bitset.New(n)
		values := make([]float32, n)
		for i, b := range bits {
			mask.Set(int(b) % n)
			if i < len(raw) {
				values[int(b)%n] = float32(raw[i])
			}
		}
		for _, enc := range []Encoding{EncIndexValue, EncBlockBitmap} {
			p, err := EncodeSelection(mask, values, enc)
			if err != nil {
				return false
			}
			d, err := DecodePayload(p.Data)
			if err != nil {
				return false
			}
			got, err := d.Reconstruct()
			if err != nil {
				return false
			}
			for i := range values {
				if mask.Get(i) && got[i] != values[i] {
					return false
				}
				if !mask.Get(i) && !math.IsNaN(float64(got[i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// sphereDataset builds a grid and distance field for filter tests.
func sphereField(n int) (*grid.Uniform, *grid.Field) {
	g := grid.NewUniform(n, n, n)
	f := grid.NewField("d", g.NumPoints())
	c := float64(n-1) / 2
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				dx, dy, dz := float64(i)-c, float64(j)-c, float64(k)-c
				f.Values[g.PointIndex(i, j, k)] = float32(math.Sqrt(dx*dx + dy*dy + dz*dz))
			}
		}
	}
	return g, f
}

func TestSplitContourMatchesFull(t *testing.T) {
	g, f := sphereField(28)
	isos := []float64{6, 9.5}
	full, err := contour.MarchingTetrahedra(g, f.Values, isos)
	if err != nil {
		t.Fatal(err)
	}
	for _, enc := range []Encoding{EncIndexValue, EncBlockBitmap, EncAuto} {
		mesh, stats, err := SplitContour(g, f, isos, enc)
		if err != nil {
			t.Fatalf("%v: %v", enc, err)
		}
		if !mesh.Equal(full) {
			t.Errorf("%v: split contour differs from full contour", enc)
		}
		if stats.SelectedPoints == 0 || stats.SelectedPoints == stats.NumPoints {
			t.Errorf("%v: selected %d/%d", enc, stats.SelectedPoints, stats.NumPoints)
		}
		// On this small 28^3 grid the two shells cover a sizeable
		// fraction; just require a real reduction (large grids are
		// exercised in TestPayloadMuchSmallerThanRaw and the benches).
		if stats.Reduction() < 2 {
			t.Errorf("%v: reduction = %.1f, want > 2", enc, stats.Reduction())
		}
	}
}

func TestPreFilterNoIsovalues(t *testing.T) {
	g, f := sphereField(8)
	pre := &PreFilter{}
	if _, _, err := pre.Run(g, f); err == nil {
		t.Error("no isovalues accepted")
	}
}

func TestPostFilterGridMismatch(t *testing.T) {
	g, f := sphereField(8)
	pre := &PreFilter{Isovalues: []float64{2}}
	payload, _, err := pre.Run(g, f)
	if err != nil {
		t.Fatal(err)
	}
	post := &PostFilter{Isovalues: []float64{2}}
	wrong := grid.NewUniform(4, 4, 4)
	if _, err := post.Contour(wrong, "d", payload); err == nil {
		t.Error("grid size mismatch accepted")
	}
}

func TestPreFilterStatsAccounting(t *testing.T) {
	g, f := sphereField(20)
	pre := &PreFilter{Isovalues: []float64{6}}
	payload, stats, err := pre.Run(g, f)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NumPoints != g.NumPoints() {
		t.Errorf("NumPoints = %d", stats.NumPoints)
	}
	if stats.PayloadBytes != int64(payload.WireSize()) {
		t.Errorf("PayloadBytes = %d, wire = %d", stats.PayloadBytes, payload.WireSize())
	}
	if stats.RawBytes != int64(4*g.NumPoints()) {
		t.Errorf("RawBytes = %d", stats.RawBytes)
	}
	if stats.Selectivity() <= 0 || stats.Selectivity() >= 1 {
		t.Errorf("Selectivity = %v", stats.Selectivity())
	}
}

func TestEncodingStringParse(t *testing.T) {
	for _, enc := range []Encoding{EncAuto, EncIndexValue, EncBlockBitmap} {
		got, err := ParseEncoding(enc.String())
		if err != nil || got != enc {
			t.Errorf("ParseEncoding(%v.String()) = %v, %v", enc, got, err)
		}
	}
	if _, err := ParseEncoding("bogus"); err == nil {
		t.Error("bogus encoding accepted")
	}
	if (Encoding(77)).String() == "" {
		t.Error("unknown encoding has empty name")
	}
}

// bench128 is the layer benchmarks' input: the benchmark's 128^3
// asteroid at seed 1, water fraction v02 at the middle time step.
func bench128(b *testing.B) *grid.Dataset {
	b.Helper()
	cfg := sim.AsteroidConfig{N: 128, Seed: 1}
	ds, err := cfg.Generate(cfg.Timesteps(3)[1])
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// BenchmarkPostFilterContour128 measures the client's share of a frame
// the way the frame runs it: PostFilter.Contour straight from a payload,
// on bench128's field at isovalue 0.5. The benchmark's traced
// contour.mtet_ms cannot show this path — its replay contours a
// reconstructed dense array — so this is where the sparse walk's ns/op,
// B/op, allocs/op and the mesh it hands the renderer are read.
func BenchmarkPostFilterContour128(b *testing.B) {
	ds := bench128(b)
	isos := []float64{0.5}
	payload, _, err := (&PreFilter{Isovalues: isos}).Run(ds.Grid, ds.Field("v02"))
	if err != nil {
		b.Fatal(err)
	}
	post := &PostFilter{Isovalues: isos}
	var mesh *contour.Mesh
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mesh, err = post.Contour(ds.Grid, "v02", payload); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*mesh.NumTriangles())/b.Elapsed().Seconds(), "triangles/s")
	b.ReportMetric(float64(mesh.NumTriangles()), "triangles/op")
	b.ReportMetric(float64(mesh.NumVertices()), "vertices/op")
}

// BenchmarkMarchDense128 is the baseline frame's kernel on the same
// field: the dense contour of the whole array.
func BenchmarkMarchDense128(b *testing.B) {
	ds := bench128(b)
	isos := []float64{0.5}
	var mesh *contour.Mesh
	var err error
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mesh, err = contour.MarchingTetrahedra(ds.Grid, ds.Field("v02").Values, isos); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(mesh.NumTriangles()), "triangles/op")
}
