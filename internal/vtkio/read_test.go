package vtkio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"vizndp/internal/compress"
	"vizndp/internal/contour"
	"vizndp/internal/grid"
	"vizndp/internal/sim"
)

// awkwardFloats are the values a conversion that goes through float
// arithmetic, not bytes, would damage.
var awkwardFloats = []float32{
	0, float32(math.Copysign(0, -1)), 1, -1.5, math.MaxFloat32, math.SmallestNonzeroFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00000), // quiet NaN
	math.Float32frombits(0x7fc12345), // quiet NaN with a payload
	math.Float32frombits(0xffa00001), // negative signalling NaN with a payload
	math.Float32frombits(0x00000001), // smallest denormal
}

func TestFloatBytesViewAndSwap(t *testing.T) {
	host := binary.ByteOrder(binary.LittleEndian)
	if hostBigEndian {
		host = binary.BigEndian
	}
	view := floatBytes(awkwardFloats)
	if len(view) != 4*len(awkwardFloats) {
		t.Fatalf("view of %d floats is %d bytes", len(awkwardFloats), len(view))
	}
	for i, f := range awkwardFloats {
		if got := host.Uint32(view[4*i:]); got != math.Float32bits(f) {
			t.Errorf("view word %d = %08x, want %08x", i, got, math.Float32bits(f))
		}
	}
	if floatBytes(nil) != nil {
		t.Error("view of no floats is not nil")
	}

	// The swap path, forced: what a big-endian host does to turn its own
	// words into the file's. Every bit pattern must come through as the
	// little-endian encoding, and swapping twice must restore the input.
	words := make([]byte, 4*len(awkwardFloats))
	for i, f := range awkwardFloats {
		binary.BigEndian.PutUint32(words[4*i:], math.Float32bits(f))
	}
	orig := append([]byte(nil), words...)
	swapWords(words, true)
	for i, f := range awkwardFloats {
		if got := binary.LittleEndian.Uint32(words[4*i:]); got != math.Float32bits(f) {
			t.Errorf("swapped word %d = %08x, want %08x", i, got, math.Float32bits(f))
		}
	}
	swapWords(words, true)
	if !bytes.Equal(words, orig) {
		t.Error("swapping twice did not restore the bytes")
	}
	swapWords(words, false)
	if !bytes.Equal(words, orig) {
		t.Error("swap=false moved bytes")
	}

	// The exported pair, on this host: bit-exact little-endian both ways.
	enc := FloatsToBytes(awkwardFloats)
	for i, f := range awkwardFloats {
		if got := binary.LittleEndian.Uint32(enc[4*i:]); got != math.Float32bits(f) {
			t.Errorf("FloatsToBytes word %d = %08x, want %08x", i, got, math.Float32bits(f))
		}
	}
	dec, err := BytesToFloats(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range awkwardFloats {
		if math.Float32bits(dec[i]) != math.Float32bits(f) {
			t.Errorf("BytesToFloats value %d = %08x, want %08x", i, math.Float32bits(dec[i]), math.Float32bits(f))
		}
	}
	enc[0] ^= 0xff
	if math.Float32bits(dec[0]) != math.Float32bits(awkwardFloats[0]) {
		t.Error("BytesToFloats result aliases its input")
	}
}

func TestReadArrayChecksHeaderBeforeReading(t *testing.T) {
	// A header whose array disagrees with its grid must fail on the
	// header alone: no read of the array's extent, same errors as ever.
	ds := makeDataset(10, 10, 10)
	var buf bytes.Buffer
	if err := Write(&buf, ds, WriteOptions{Codec: compress.LZ4}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, old, new, wantErr string }{
		{"grid larger than array", `"dims":[10,10,10]`, `"dims":[10,10,20]`, `array "v03" has 1000 values, grid has 2000 points`},
		{"not whole floats", `"raw":4000`, `"raw":4001`, `4001 bytes is not a whole number of float32`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !bytes.Contains(buf.Bytes(), []byte(tc.old)) {
				t.Fatalf("fixture header has no %s", tc.old)
			}
			// Same-length edits, so offsets in the header stay true.
			file := bytes.ReplaceAll(buf.Bytes(), []byte(tc.old), []byte(tc.new))
			tracked := &trackingReaderAt{data: file}
			r, err := OpenReader(tracked)
			if err != nil {
				t.Fatal(err)
			}
			tracked.reset()
			_, err = r.ReadArray("v03")
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("err = %v, want one containing %q", err, tc.wantErr)
			}
			if len(tracked.ranges) != 0 {
				t.Errorf("ReadArray issued %d reads before rejecting the header: %v", len(tracked.ranges), tracked.ranges)
			}
		})
	}
}

// TestHeaderDamageIsErrCorrupt: the header carries no checksum, so a
// store can damage it as it damages an array. Every single-bit flip in
// it or in the preamble, and a header cut short or with bytes zeroed,
// either reads every array the header names or fails with ErrCorrupt —
// never with a JSON, grid, codec or size error a caller would not know
// to retry elsewhere.
func TestHeaderDamageIsErrCorrupt(t *testing.T) {
	readAll := func(file []byte) error {
		r, err := OpenReader(bytes.NewReader(file))
		if err != nil {
			return err
		}
		for _, a := range r.Header().Arrays {
			if _, err := r.ReadArray(a.Name); err != nil {
				return err
			}
		}
		return nil
	}
	for _, kind := range []compress.Kind{compress.None, compress.LZ4} {
		t.Run(kind.String(), func(t *testing.T) {
			file := writeChecksummed(t, makeDataset(8, 8, 8), WriteOptions{Codec: kind, ChunkSize: 1024})
			if err := readAll(file); err != nil {
				t.Fatalf("undamaged file: %v", err)
			}
			hlo := len(Magic) + 4
			hhi := hlo + int(binary.BigEndian.Uint32(file[len(Magic):]))
			damaged := make([]byte, len(file))
			failed := 0
			for pos := 0; pos < hhi; pos++ {
				for bit := 0; bit < 8; bit++ {
					copy(damaged, file)
					damaged[pos] ^= 1 << bit
					if err := readAll(damaged); err != nil {
						failed++
						if !errors.Is(err, ErrCorrupt) {
							t.Errorf("bit %d of byte %d (%q): %v, want ErrCorrupt", bit, pos, file[pos], err)
						}
					}
				}
			}
			if failed == 0 {
				t.Fatal("no header flip failed the read")
			}
			zeroed := append([]byte(nil), file...)
			clear(zeroed[hlo+20 : hlo+36])
			for name, f := range map[string][]byte{
				"header cut short":    file[:hhi-10],
				"header bytes zeroed": zeroed,
			} {
				if err := readAll(f); !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s: %v, want ErrCorrupt", name, err)
				}
			}
		})
	}

	// A chunk size that lies before a partial span shifts the wanted
	// chunks onto bytes whose pages all verify; only their decode fails.
	file, _ := arrayFile(t, 64, WriteOptions{Codec: compress.LZ4, ChunkSize: 16 << 10, Checksum: true})
	r, err := OpenReader(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	chunks := r.Header().Arrays[0].Chunks
	comp := chunks[0].Comp
	lied := bytes.Replace(file, []byte(fmt.Sprintf(`"comp":%d,`, comp)), []byte(fmt.Sprintf(`"comp":%d,`, comp-1)), 1)
	if r, err = OpenReader(bytes.NewReader(lied)); err != nil {
		t.Fatalf("a one-byte chunk-size lie failed the open (%v); the case needs it to reach the read", err)
	}
	want := make([]bool, len(chunks))
	want[len(want)/2] = true
	if _, err := r.ReadArrayChunks("v02", want); !errors.Is(err, ErrCorrupt) {
		t.Errorf("masked read under a lying chunk size: %v, want ErrCorrupt", err)
	}
}

// arrayFile writes one n-cubed array of field-like data (long equal runs
// between noisy stretches) and returns the file and the array's raw size.
func arrayFile(tb testing.TB, n int, opts WriteOptions) ([]byte, int64) {
	tb.Helper()
	g := grid.NewUniform(n, n, n)
	f := grid.NewField("v02", g.NumPoints())
	x := uint32(1)
	for i := range f.Values {
		x = x*1664525 + 1013904223
		if (i/4096)%3 == 0 {
			f.Values[i] = float32(x>>8) / (1 << 24)
		}
	}
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	var buf bytes.Buffer
	if err := Write(&buf, ds, opts); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), int64(4 * g.NumPoints())
}

var readArrayCodecs = []compress.Kind{compress.None, compress.LZ4, compress.Gzip}

// The trace has vtkio.read_array_ms for the benchmark's objects; this
// says, per codec and with nothing else running, what one decode costs
// in time and in bytes allocated per array byte. The masked cases are
// the uncached server's read of the benchmark's v02 for a contour at
// 0.5: ReadArrayChunks with the chunk mask the server plans, at the old
// and the new default chunk size. Their MB/s is of the whole array.
func BenchmarkReadArray(b *testing.B) {
	for _, kind := range readArrayCodecs {
		b.Run(kind.String(), func(b *testing.B) {
			file, raw := arrayFile(b, 128, WriteOptions{Codec: kind, Checksum: true})
			benchmarkRead(b, file, raw, nil)
		})
	}
	ds := bench128(b)
	for _, kind := range []compress.Kind{compress.None, compress.LZ4} {
		for _, size := range []int{1 << 20, 256 << 10} {
			b.Run(fmt.Sprintf("masked/%v/%dKiB", kind, size>>10), func(b *testing.B) {
				var buf bytes.Buffer
				if err := Write(&buf, ds, WriteOptions{Codec: kind, ChunkSize: size, Checksum: true}); err != nil {
					b.Fatal(err)
				}
				want := contourChunks(b, buf.Bytes(), "v02", 0.5)
				benchmarkRead(b, buf.Bytes(), int64(4*ds.Grid.NumPoints()), want)
				read := 0
				for _, w := range want {
					if w {
						read++
					}
				}
				b.ReportMetric(float64(read)/float64(len(want)), "chunks-read/chunks")
			})
		}
	}
}

// benchmarkRead times ReadArrayChunks of v02 with mask want, raw bytes
// of array a read.
func benchmarkRead(b *testing.B, file []byte, raw int64, want []bool) {
	r, err := OpenReader(bytes.NewReader(file))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(raw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadArrayChunks("v02", want); err != nil {
			b.Fatal(err)
		}
	}
}

// bench128 is the benchmark's 128^3 asteroid at seed 1, middle time step.
func bench128(b *testing.B) *grid.Dataset {
	b.Helper()
	cfg := sim.AsteroidConfig{N: 128, Seed: 1}
	ds, err := cfg.Generate(cfg.Timesteps(3)[1])
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// contourChunks is the chunk mask the NDP server's uncached load plans
// for a contour of array name at iso (core's readPlan.plan): every point
// row is bounded by the ranges of the chunks it lies in, and a chunk is
// wanted when it holds a row of a row pair those bounds leave live.
func contourChunks(tb testing.TB, file []byte, name string, iso float64) []bool {
	tb.Helper()
	r, err := OpenReader(bytes.NewReader(file))
	if err != nil {
		tb.Fatal(err)
	}
	chunks, err := r.ChunkRanges(name, nil)
	if err != nil || chunks == nil {
		tb.Fatalf("no chunk ranges: %v", err)
	}
	g := r.Grid()
	nx, n := g.Dims.X, g.Dims.Y*g.Dims.Z
	lo, hi := make([]float32, n), make([]float32, n)
	for i := range lo {
		lo[i], hi[i] = float32(math.Inf(1)), float32(math.Inf(-1))
	}
	rows := func(c ChunkRange) (int, int) { return min(c.Start/nx, n), min((c.End+nx-1)/nx, n) }
	for _, c := range chunks {
		r0, r1 := rows(c)
		for i := r0; i < r1; i++ {
			lo[i], hi[i] = min(lo[i], c.Lo), max(hi[i], c.Hi)
		}
	}
	sum, err := contour.BoundRows(g, lo, hi)
	if err != nil {
		tb.Fatal(err)
	}
	need := make([]uint64, (n+63)/64)
	sum.ContourRows([]float64{iso}, need)
	want := make([]bool, len(chunks))
	for c := range chunks {
		r0, r1 := rows(chunks[c])
		for i := r0; i < r1 && !want[c]; i++ {
			want[c] = need[i>>6]&(1<<(i&63)) != 0
		}
	}
	return want
}

// TestReadAllocsDoNotGrowWithChunks: decoding one array costs the same
// allocations in 8, 32 or 128 chunks, whole or masked, raw or LZ4 — the
// decode workers are a fixed set, not one goroutine per chunk.
func TestReadAllocsDoNotGrowWithChunks(t *testing.T) {
	const slack = 2 // the pooled extent, which -race may drop, and rounding
	for _, kind := range []compress.Kind{compress.None, compress.LZ4} {
		for _, masked := range []bool{false, true} {
			var first float64
			for i, size := range []int{1 << 20, 256 << 10, 64 << 10} {
				file, _ := arrayFile(t, 128, WriteOptions{Codec: kind, ChunkSize: size, Checksum: true})
				r, err := OpenReader(bytes.NewReader(file))
				if err != nil {
					t.Fatal(err)
				}
				var want []bool
				if masked {
					// The middle half of the chunks, every other one.
					want = make([]bool, len(r.Header().Array("v02").Chunks))
					for c := len(want) / 4; c < 3*len(want)/4; c += 2 {
						want[c] = true
					}
				}
				allocs := testing.AllocsPerRun(20, func() {
					if _, err := r.ReadArrayChunks("v02", want); err != nil {
						t.Fatal(err)
					}
				})
				if i == 0 {
					first = allocs
				} else if math.Abs(allocs-first) > slack {
					t.Errorf("%v masked=%v: %.1f allocs/op in %d KiB chunks, %.1f in 1 MiB chunks", kind, masked, allocs, size>>10, first)
				}
			}
		}
	}
}

func TestReadArrayAllocatesTheArrayOnce(t *testing.T) {
	// One array-sized allocation per read — the []float32 handed back.
	// The quarter on top covers per-chunk codec state (a gzip reader is
	// ~45 KB a chunk). The collector is held off while counting, because
	// a collection empties sync.Pool and when one happens is up to
	// whatever else the test binary is doing.
	if raceEnabled {
		t.Skip("sync.Pool discards items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 4
	for _, kind := range readArrayCodecs {
		file, raw := arrayFile(t, 128, WriteOptions{Codec: kind, Checksum: true})
		r, err := OpenReader(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		read := func() {
			if _, err := r.ReadArray("v02"); err != nil {
				t.Fatal(err)
			}
		}
		read() // fills the extent pool
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			read()
		}
		runtime.ReadMemStats(&after)
		perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
		if limit := 1.25 * float64(raw); perOp > limit {
			t.Errorf("%v: ReadArray allocates %.0f B/op for a %d-byte array, limit %.0f", kind, perOp, raw, limit)
		}
	}
}

func TestConcurrentReadsNeverAliasPooledExtents(t *testing.T) {
	// Two arrays read at once, over and over, from one Reader: every
	// result is kept until the end and compared with a decode that never
	// touched the pool. Had a result pointed into a pooled extent, a later
	// read would have scribbled on it (and -race would see the write).
	ds := makeDataset(24, 24, 24)
	file := writeChecksummed(t, ds, WriteOptions{Codec: compress.LZ4, ChunkSize: 4096, ChecksumPageSize: 1024})
	r, err := OpenReader(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"v02", "rho"}
	want := make(map[string][]float32)
	for _, name := range names {
		want[name] = unpooledDecode(t, file, r.Header().Array(name))
	}

	const workers, rounds = 4, 25
	got := make([][]*grid.Field, workers)
	raws := make([][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				f, err := r.ReadArray(names[(w+i)%2])
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = append(got[w], f)
			}
			// A masked read of the even chunks shares the pooled extents too.
			info := r.Header().Array(names[w%2])
			even := make([]bool, len(info.Chunks))
			for c := range even {
				even[c] = c%2 == 0
			}
			f, err := r.ReadArrayChunks(names[w%2], even)
			if err != nil {
				t.Error(err)
				return
			}
			raws[w] = FloatsToBytes(f.Values)
			if err := r.VerifyChecksums(); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i, f := range got[w] {
			if !sameFloatBits(f.Values, want[f.Name]) {
				t.Fatalf("worker %d read %d of %q differs from the unpooled decode", w, i, f.Name)
			}
		}
		info := r.Header().Array(names[w%2])
		full := FloatsToBytes(want[names[w%2]])
		var roff int
		for c, ch := range info.Chunks {
			wantChunk := full[roff : roff+ch.Raw]
			if c%2 == 1 {
				wantChunk = make([]byte, ch.Raw) // skipped: left zero
			}
			if !bytes.Equal(raws[w][roff:roff+ch.Raw], wantChunk) {
				t.Fatalf("worker %d: masked read of chunk %d differs from the unpooled decode", w, c)
			}
			roff += ch.Raw
		}
	}
}

// unpooledDecode decodes one array from the file's bytes the way a reader
// with no pool and no views would: a fresh buffer per chunk, then a
// per-value conversion.
func unpooledDecode(t *testing.T, file []byte, info *ArrayInfo) []float32 {
	t.Helper()
	codec, err := info.codec()
	if err != nil {
		t.Fatal(err)
	}
	var vals []float32
	off := info.Offset
	for _, c := range info.Chunks {
		dec := make([]byte, c.Raw)
		if err := codec.DecompressInto(dec, file[off:off+int64(c.Comp)]); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(dec); i += 4 {
			vals = append(vals, math.Float32frombits(binary.LittleEndian.Uint32(dec[i:])))
		}
		off += int64(c.Comp)
	}
	return vals
}

func sameFloatBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
