package vtkio

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"vizndp/internal/compress"
	"vizndp/internal/grid"
	"vizndp/internal/sim"
)

// makeDataset builds a deterministic multi-array dataset.
func makeDataset(nx, ny, nz int) *grid.Dataset {
	g := grid.NewUniform(nx, ny, nz)
	g.Origin = grid.Vec3{X: -1, Y: 0, Z: 2}
	g.Spacing = grid.Vec3{X: 0.5, Y: 1, Z: 2}
	ds := grid.NewDataset(g)
	rng := rand.New(rand.NewSource(123))
	for _, name := range []string{"v02", "v03", "rho"} {
		f := grid.NewField(name, g.NumPoints())
		for i := range f.Values {
			switch {
			case rng.Float32() < 0.7:
				f.Values[i] = 0 // long runs: compressible
			default:
				f.Values[i] = rng.Float32()
			}
		}
		ds.MustAddField(f)
	}
	return ds
}

func roundTripDataset(t *testing.T, ds *grid.Dataset, opts WriteOptions) *Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, ds, opts); err != nil {
		t.Fatalf("Write: %v", err)
	}
	r, err := OpenReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	return r
}

func TestRoundTripAllCodecs(t *testing.T) {
	ds := makeDataset(12, 10, 8)
	for _, kind := range []compress.Kind{compress.None, compress.Gzip, compress.LZ4} {
		r := roundTripDataset(t, ds, WriteOptions{Codec: kind})
		if !r.Grid().Equal(ds.Grid) {
			t.Errorf("%v: grid mismatch", kind)
		}
		got, err := r.ReadDataset()
		if err != nil {
			t.Fatalf("%v: ReadDataset: %v", kind, err)
		}
		for _, name := range ds.FieldNames() {
			want := ds.Field(name).Values
			gotVals := got.Field(name).Values
			if len(gotVals) != len(want) {
				t.Fatalf("%v/%s: %d values, want %d", kind, name, len(gotVals), len(want))
			}
			for i := range want {
				if gotVals[i] != want[i] {
					t.Fatalf("%v/%s: value %d = %v, want %v", kind, name, i, gotVals[i], want[i])
				}
			}
		}
	}
}

func TestSelectiveArrayRead(t *testing.T) {
	ds := makeDataset(8, 8, 8)
	r := roundTripDataset(t, ds, WriteOptions{Codec: compress.LZ4})
	f, err := r.ReadArray("v03")
	if err != nil {
		t.Fatal(err)
	}
	want := ds.Field("v03").Values
	for i := range want {
		if f.Values[i] != want[i] {
			t.Fatalf("value %d mismatch", i)
		}
	}
	if _, err := r.ReadArray("nope"); err == nil {
		t.Error("unknown array accepted")
	}
}

func TestSelectiveReadTouchesOnlyArrayRange(t *testing.T) {
	// Reading v03 must only issue reads inside v03's recorded extent
	// (plus the header) — this is the data-array-selection property.
	ds := makeDataset(10, 10, 10)
	var buf bytes.Buffer
	if err := Write(&buf, ds, WriteOptions{Codec: compress.None}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	r, err := OpenReader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	info := r.Header().Array("v03")

	tracked := &trackingReaderAt{data: full}
	r2, err := OpenReader(tracked)
	if err != nil {
		t.Fatal(err)
	}
	headerEnd := int64(len(Magic)) + 4 + int64(len(full))
	tracked.reset()
	if _, err := r2.ReadArray("v03"); err != nil {
		t.Fatal(err)
	}
	for _, rg := range tracked.ranges {
		if rg.off >= info.Offset && rg.off+rg.n <= info.Offset+info.CompressedSize() {
			continue // inside v03's block
		}
		t.Errorf("read outside v03 extent: [%d,%d) (v03 at [%d,%d), header < %d)",
			rg.off, rg.off+rg.n, info.Offset, info.Offset+info.CompressedSize(), headerEnd)
	}
}

type readRange struct{ off, n int64 }

type trackingReaderAt struct {
	data   []byte
	ranges []readRange
}

func (t *trackingReaderAt) reset() { t.ranges = nil }

func (t *trackingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	t.ranges = append(t.ranges, readRange{off, int64(len(p))})
	if off >= int64(len(t.data)) {
		return 0, os.ErrInvalid
	}
	n := copy(p, t.data[off:])
	if n < len(p) {
		return n, os.ErrInvalid
	}
	return n, nil
}

func TestArraySizes(t *testing.T) {
	ds := makeDataset(16, 16, 16)
	r := roundTripDataset(t, ds, WriteOptions{Codec: compress.Gzip})
	info := r.Header().Array("v02")
	rawWant := int64(4 * ds.Grid.NumPoints())
	if info.RawSize() != rawWant {
		t.Errorf("RawSize = %d, want %d", info.RawSize(), rawWant)
	}
	if info.CompressedSize() >= rawWant {
		t.Errorf("gzip did not shrink compressible field: %d >= %d",
			info.CompressedSize(), rawWant)
	}
}

func TestMultipleChunks(t *testing.T) {
	// Force several chunks per array with a small chunk size.
	ds := makeDataset(32, 32, 8) // 8192 points = 32 KiB/array
	r := roundTripDataset(t, ds, WriteOptions{Codec: compress.LZ4, ChunkSize: 4096})
	info := r.Header().Array("v02")
	if len(info.Chunks) != 8 {
		t.Errorf("chunks = %d, want 8", len(info.Chunks))
	}
	got, err := r.ReadArray("v02")
	if err != nil {
		t.Fatal(err)
	}
	want := ds.Field("v02").Values
	for i := range want {
		if got.Values[i] != want[i] {
			t.Fatalf("value %d mismatch", i)
		}
	}
}

func TestWriteFileOpenFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ts0.vnd")
	ds := makeDataset(6, 6, 6)
	if err := WriteFile(path, ds, WriteOptions{Codec: compress.LZ4}); err != nil {
		t.Fatal(err)
	}
	r, closer, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	names := r.Header().ArrayNames()
	if len(names) != 3 || names[0] != "v02" {
		t.Errorf("names = %v", names)
	}
	got, err := r.ReadDataset("rho")
	if err != nil {
		t.Fatal(err)
	}
	if got.NumFields() != 1 {
		t.Errorf("selected dataset has %d fields", got.NumFields())
	}
}

func TestOpenReaderRejectsGarbage(t *testing.T) {
	if _, err := OpenReader(bytes.NewReader([]byte("not a dataset file at all"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := OpenReader(bytes.NewReader([]byte("VN"))); err == nil {
		t.Error("truncated magic accepted")
	}
	// Valid magic, absurd header length.
	bad := append([]byte(Magic), 0xFF, 0xFF, 0xFF, 0xFF)
	if _, err := OpenReader(bytes.NewReader(bad)); err == nil {
		t.Error("oversized header accepted")
	}
	// Valid magic, header length that overruns the file.
	bad = append([]byte(Magic), 0, 0, 0, 200)
	if _, err := OpenReader(bytes.NewReader(bad)); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestWriteRejectsInvalidGrid(t *testing.T) {
	g := grid.NewUniform(4, 4, 4)
	g.Spacing.X = -1
	ds := grid.NewDataset(g)
	var buf bytes.Buffer
	if err := Write(&buf, ds, WriteOptions{}); err == nil {
		t.Error("invalid grid accepted")
	}
}

func TestSpecialFloatValues(t *testing.T) {
	g := grid.NewUniform(2, 2, 2)
	ds := grid.NewDataset(g)
	f := grid.NewField("s", 8)
	f.Values = []float32{
		0, float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.MaxFloat32, math.SmallestNonzeroFloat32,
		-0.0, 1e-30,
	}
	ds.MustAddField(f)
	r := roundTripDataset(t, ds, WriteOptions{Codec: compress.Gzip})
	got, err := r.ReadArray("s")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range f.Values {
		g := got.Values[i]
		if math.IsNaN(float64(want)) {
			if !math.IsNaN(float64(g)) {
				t.Errorf("value %d: got %v, want NaN", i, g)
			}
			continue
		}
		if g != want {
			t.Errorf("value %d: got %v, want %v", i, g, want)
		}
	}
}

func TestLossyRoundTripWithinBound(t *testing.T) {
	ds := makeDataset(16, 16, 16)
	const bound = 0.01
	r := roundTripDataset(t, ds, WriteOptions{LossyBound: bound})
	for _, name := range ds.FieldNames() {
		info := r.Header().Array(name)
		if info.Codec != LossyCodecName || info.LossyBound != bound {
			t.Fatalf("%s: codec=%q bound=%v", name, info.Codec, info.LossyBound)
		}
		got, err := r.ReadArray(name)
		if err != nil {
			t.Fatal(err)
		}
		want := ds.Field(name).Values
		for i := range want {
			d := math.Abs(float64(got.Values[i]) - float64(want[i]))
			if d > bound*1.001 {
				t.Fatalf("%s: value %d off by %v (bound %v)", name, i, d, bound)
			}
		}
	}
}

func TestLossyBeatsLosslessOnNoisyData(t *testing.T) {
	// Noisy mantissas (Nyx-style): lossless codecs barely help, the
	// error-bounded codec compresses hard.
	g := grid.NewUniform(24, 24, 24)
	ds := grid.NewDataset(g)
	f := grid.NewField("rho", g.NumPoints())
	rng := rand.New(rand.NewSource(8))
	for i := range f.Values {
		f.Values[i] = float32(math.Exp(rng.NormFloat64()))
	}
	ds.MustAddField(f)

	rGz := roundTripDataset(t, ds, WriteOptions{Codec: compress.Gzip})
	rLossy := roundTripDataset(t, ds, WriteOptions{LossyBound: 0.01})
	gz := rGz.Header().Array("rho").CompressedSize()
	lossy := rLossy.Header().Array("rho").CompressedSize()
	if lossy >= gz {
		t.Errorf("lossy %d bytes should beat gzip %d on noisy data", lossy, gz)
	}
}

func TestLossyChunked(t *testing.T) {
	// Lossy arrays split across chunks must still respect the bound at
	// chunk boundaries (each chunk restarts the predictor).
	ds := makeDataset(32, 32, 4)
	const bound = 0.005
	r := roundTripDataset(t, ds, WriteOptions{LossyBound: bound, ChunkSize: 4096})
	got, err := r.ReadArray("v02")
	if err != nil {
		t.Fatal(err)
	}
	want := ds.Field("v02").Values
	for i := range want {
		if d := math.Abs(float64(got.Values[i]) - float64(want[i])); d > bound*1.001 {
			t.Fatalf("value %d off by %v", i, d)
		}
	}
	if n := len(r.Header().Array("v02").Chunks); n < 2 {
		t.Fatalf("expected multiple chunks, got %d", n)
	}
}

func TestLossyBoundValidation(t *testing.T) {
	// A header claiming qlz4 without a bound must be rejected at read.
	ds := makeDataset(4, 4, 4)
	var buf bytes.Buffer
	if err := Write(&buf, ds, WriteOptions{LossyBound: 0.1}); err != nil {
		t.Fatal(err)
	}
	data := bytes.Replace(buf.Bytes(), []byte(`"lossyBound":0.1`), []byte(`"lossyBound":0.0`), -1)
	if bytes.Equal(data, buf.Bytes()) {
		t.Fatal("test setup: bound not found in header")
	}
	// Header length unchanged (same byte count), so the file still parses.
	r, err := OpenReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadArray("v02"); err == nil {
		t.Error("zero lossy bound accepted")
	}
}

// TestCoordsHeaderReadsAsUniform pins how a file from a writer that
// stored rectilinear coordinates (header keys "coords" + X/Y/Z) reads
// now: those keys are ignored, even unsorted ones, and the grid is the
// uniform one the header's dims, origin and spacing describe.
func TestCoordsHeaderReadsAsUniform(t *testing.T) {
	data := FloatsToBytes([]float32{1, 2, 3, 4, 5, 6, 7, 8})
	h := map[string]any{
		"dims":    []int{2, 2, 2},
		"origin":  []float64{0, 0, 0},
		"spacing": []float64{1, 1, 1},
	}
	for _, axis := range []string{"X", "Y", "Z"} {
		h["coords"+axis] = []float64{1, 0}
	}
	var enc []byte
	for hlen := -1; len(enc) != hlen; {
		hlen = len(enc)
		h["arrays"] = []ArrayInfo{{Name: "v02", Codec: "none", Offset: int64(len(Magic) + 4 + hlen),
			Chunks: []ChunkInfo{{Comp: len(data), Raw: len(data)}}}}
		var err error
		if enc, err = json.Marshal(h); err != nil {
			t.Fatal(err)
		}
	}
	file := binary.BigEndian.AppendUint32([]byte(Magic), uint32(len(enc)))
	file = append(append(file, enc...), data...)

	r, err := OpenReader(bytes.NewReader(file))
	if err != nil {
		t.Fatalf("a header carrying coordinates was rejected: %v", err)
	}
	if g := r.Header().Grid(); !g.Equal(grid.NewUniform(2, 2, 2)) {
		t.Errorf("grid = %+v, want the uniform 2x2x2 grid", g)
	}
	f, err := r.ReadArray("v02")
	if err != nil {
		t.Fatal(err)
	}
	if f.Values[7] != 8 {
		t.Errorf("values = %v", f.Values)
	}
}

func TestFloatsBytesRoundTrip(t *testing.T) {
	f := func(vals []float32) bool {
		b := FloatsToBytes(vals)
		got, err := BytesToFloats(b)
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if math.Float32bits(got[i]) != math.Float32bits(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBytesToFloatsRejectsOddLength(t *testing.T) {
	if _, err := BytesToFloats(make([]byte, 7)); err == nil {
		t.Error("odd length accepted")
	}
}

func TestEmptyDataset(t *testing.T) {
	ds := grid.NewDataset(grid.NewUniform(2, 2, 2))
	r := roundTripDataset(t, ds, WriteOptions{Codec: compress.LZ4})
	if len(r.Header().ArrayNames()) != 0 {
		t.Error("expected no arrays")
	}
}

func TestHeaderOffsetsAreContiguous(t *testing.T) {
	ds := makeDataset(10, 10, 10)
	var buf bytes.Buffer
	if err := Write(&buf, ds, WriteOptions{Codec: compress.LZ4}); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	arrays := r.Header().Arrays
	for i := 1; i < len(arrays); i++ {
		wantOff := arrays[i-1].Offset + arrays[i-1].CompressedSize()
		if arrays[i].Offset != wantOff {
			t.Errorf("array %d offset %d, want %d", i, arrays[i].Offset, wantOff)
		}
	}
	last := arrays[len(arrays)-1]
	if got := last.Offset + last.CompressedSize(); got != int64(buf.Len()) {
		t.Errorf("file ends at %d, arrays end at %d", buf.Len(), got)
	}
}

func TestTruncatedArrayData(t *testing.T) {
	// A valid header whose array block is cut off must fail the read, not
	// hang or return short data.
	ds := makeDataset(8, 8, 8)
	var buf bytes.Buffer
	if err := Write(&buf, ds, WriteOptions{Codec: compress.LZ4}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	r, err := OpenReader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	info := r.Header().Array("rho") // the last array
	cut := int(info.Offset) + int(info.CompressedSize())/2
	r2, err := OpenReader(bytes.NewReader(full[:cut]))
	if err != nil {
		t.Fatal(err) // header still parses
	}
	if _, err := r2.ReadArray("rho"); err == nil {
		t.Error("truncated array read succeeded")
	}
	// Earlier arrays are still intact.
	if _, err := r2.ReadArray("v02"); err != nil {
		t.Errorf("intact array unreadable: %v", err)
	}
}

func TestCorruptChunkData(t *testing.T) {
	ds := makeDataset(8, 8, 8)
	var buf bytes.Buffer
	if err := Write(&buf, ds, WriteOptions{Codec: compress.Gzip}); err != nil {
		t.Fatal(err)
	}
	full := append([]byte{}, buf.Bytes()...)
	r, err := OpenReader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	info := r.Header().Array("v02")
	// Flip bytes in the middle of v02's compressed block.
	for i := 0; i < 8; i++ {
		full[int(info.Offset)+int(info.CompressedSize())/2+i] ^= 0xFF
	}
	r2, err := OpenReader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.ReadArray("v02"); err == nil {
		t.Error("corrupt chunk decoded silently")
	}
}

// BenchmarkWrite128 is the testbed's store step alone: one checksummed
// 128³ asteroid step, as the benchmark writes it, into a buffer already
// large enough to hold it.
func BenchmarkWrite128(b *testing.B) {
	cfg := sim.AsteroidConfig{N: 128, Seed: 1}
	ds, err := cfg.Generate(sim.AsteroidMaxStep)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []compress.Kind{compress.None, compress.LZ4} {
		b.Run(kind.String(), func(b *testing.B) {
			opts := WriteOptions{Codec: kind, Checksum: true}
			var buf bytes.Buffer
			if err := Write(&buf, ds, opts); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(4 * ds.Grid.NumPoints() * ds.NumFields()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := Write(&buf, ds, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
