package lz4

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, src []byte) {
	t.Helper()
	comp := Compress(src)
	got, err := Decompress(comp, len(src))
	if err != nil {
		t.Fatalf("decompress(%d bytes -> %d): %v", len(src), len(comp), err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch: %d bytes in, %d out", len(src), len(got))
	}
}

func TestRoundTripEmpty(t *testing.T) {
	roundTrip(t, nil)
	if got := Compress(nil); len(got) != 0 {
		t.Errorf("empty input should compress to empty block, got %d bytes", len(got))
	}
}

func TestRoundTripTiny(t *testing.T) {
	for n := 1; n <= 32; n++ {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(i)
		}
		roundTrip(t, buf)
	}
}

func TestRoundTripRepetitive(t *testing.T) {
	src := bytes.Repeat([]byte("abcd"), 10_000)
	comp := Compress(src)
	if len(comp) >= len(src)/10 {
		t.Errorf("repetitive data compressed to %d/%d bytes; expected >10x", len(comp), len(src))
	}
	roundTrip(t, src)
}

func TestRoundTripAllZero(t *testing.T) {
	src := make([]byte, 1<<20)
	comp := Compress(src)
	if len(comp) > 5000 {
		t.Errorf("1 MiB of zeros compressed to %d bytes", len(comp))
	}
	roundTrip(t, src)
}

func TestRoundTripIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	src := make([]byte, 100_000)
	rng.Read(src)
	comp := Compress(src)
	if len(comp) > compressBound(len(src)) {
		t.Errorf("compressed %d exceeds bound %d", len(comp), compressBound(len(src)))
	}
	roundTrip(t, src)
}

func TestRoundTripText(t *testing.T) {
	src := []byte(strings.Repeat(
		"the quick brown fox jumps over the lazy dog; ", 500))
	roundTrip(t, src)
}

func TestRoundTripLongMatches(t *testing.T) {
	// Exercise match-length extension bytes (>15+4 and multiples of 255).
	for _, n := range []int{19, 20, 270, 273, 274, 529, 10_000} {
		src := append([]byte("0123456789abcdef"), bytes.Repeat([]byte{'Q'}, n)...)
		src = append(src, "tail-literals"...)
		roundTrip(t, src)
	}
}

func TestRoundTripLongLiterals(t *testing.T) {
	// Exercise literal-length extension bytes: random (incompressible)
	// prefixes of awkward lengths followed by compressible data.
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{14, 15, 16, 269, 270, 271, 524, 525} {
		lit := make([]byte, n)
		rng.Read(lit)
		src := append(lit, bytes.Repeat([]byte("xyzw"), 100)...)
		roundTrip(t, src)
	}
}

func TestRoundTripFarOffsets(t *testing.T) {
	// Repetition period just inside and outside the 64 KiB window.
	unit := make([]byte, 60_000)
	rng := rand.New(rand.NewSource(3))
	rng.Read(unit)
	src := append(append([]byte{}, unit...), unit...)
	roundTrip(t, src)

	unit = make([]byte, 70_000) // beyond window: matches impossible
	rng.Read(unit)
	src = append(append([]byte{}, unit...), unit...)
	roundTrip(t, src)
}

func TestRoundTripFloat32Pattern(t *testing.T) {
	// Shape of the actual workload: little-endian float32 fields with long
	// runs of equal values (e.g. v02 == 0 outside the water).
	src := make([]byte, 0, 40_000)
	for i := 0; i < 10_000; i++ {
		var v uint32
		if i%100 < 3 {
			v = 0x3f800000 // 1.0
		}
		src = append(src, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	comp := Compress(src)
	if len(comp) >= len(src)/2 {
		t.Errorf("field-like data compressed to %d/%d", len(comp), len(src))
	}
	roundTrip(t, src)
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		comp := Compress(data)
		got, err := Decompress(comp, len(data))
		return err == nil && bytes.Equal(got, data)
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickRoundTripStructured(t *testing.T) {
	// Random data rarely has matches; synthesize structured inputs by
	// repeating random chunks so the compressor's match path is exercised.
	f := func(chunk []byte, repeat uint8) bool {
		if len(chunk) == 0 {
			return true
		}
		src := bytes.Repeat(chunk, int(repeat%32)+2)
		comp := Compress(src)
		got, err := Decompress(comp, len(src))
		return err == nil && bytes.Equal(got, src)
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDecompressRejectsCorrupt(t *testing.T) {
	src := bytes.Repeat([]byte("hello world "), 100)
	comp := Compress(src)

	// Truncations at every prefix length must error, never panic.
	for i := 0; i < len(comp); i++ {
		if _, err := Decompress(comp[:i], len(src)); err == nil {
			t.Fatalf("truncation to %d bytes accepted", i)
		}
	}
	// Wrong declared size.
	if _, err := Decompress(comp, len(src)-1); err == nil {
		t.Error("short declared size accepted")
	}
	if _, err := Decompress(comp, len(src)+1); err == nil {
		t.Error("long declared size accepted")
	}
	if _, err := Decompress(comp, -1); err == nil {
		t.Error("negative size accepted")
	}
	// Empty block with nonzero size.
	if _, err := Decompress(nil, 4); err == nil {
		t.Error("empty block with nonzero size accepted")
	}
	// Nonempty block with zero size.
	if _, err := Decompress([]byte{0x00}, 0); err == nil {
		t.Error("nonempty block with zero size accepted")
	}
}

func TestDecompressRejectsBadOffset(t *testing.T) {
	// Hand-built block: 4 literals then a match with offset 9 (> output so far).
	block := []byte{
		0x40, 'a', 'b', 'c', 'd', // token: 4 literals, match len 4
		0x09, 0x00, // offset 9, invalid
		0x00, // final empty-literal token would follow; unreachable
	}
	if _, err := Decompress(block, 8); err == nil {
		t.Error("offset beyond output accepted")
	}
	// Offset 0 is always invalid.
	block[5], block[6] = 0x00, 0x00
	if _, err := Decompress(block, 8); err == nil {
		t.Error("zero offset accepted")
	}
}

func TestDecompressFuzzRandomInput(t *testing.T) {
	// Random garbage must never panic; errors are fine.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		n := rng.Intn(64)
		buf := make([]byte, n)
		rng.Read(buf)
		size := rng.Intn(256)
		_, _ = Decompress(buf, size) // must not panic
	}
}

func TestCompressBoundHolds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 100, 1000, 65536} {
		buf := make([]byte, n)
		rng.Read(buf)
		if got := len(Compress(buf)); got > compressBound(n) {
			t.Errorf("n=%d: compressed %d > bound %d", n, got, compressBound(n))
		}
	}
}

func TestAppendCompressedAppends(t *testing.T) {
	prefix := []byte("PREFIX")
	src := bytes.Repeat([]byte("data"), 50)
	out := AppendCompressed(append([]byte{}, prefix...), src)
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("prefix clobbered")
	}
	got, err := Decompress(out[len(prefix):], len(src))
	if err != nil || !bytes.Equal(got, src) {
		t.Fatalf("append round trip failed: %v", err)
	}
}

// TestAppendCompressedDoesNotAllocate holds the compressor to reusing
// its hash table: into a dst with room for the block, it allocates
// nothing. The collector is held off while counting, because a
// collection empties sync.Pool.
func TestAppendCompressedDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	src := zeroRunField()[:1<<16]
	dst := make([]byte, 0, compressBound(len(src)))
	if n := testing.AllocsPerRun(20, func() { AppendCompressed(dst, src) }); n != 0 {
		t.Errorf("AppendCompressed allocated %v times per call, want 0", n)
	}
}

// TestCompressAllocatesOnlyTheBlock: once the scratch pool holds a
// buffer of the compress bound, Compress allocates only the block it
// returns, at exactly its length.
func TestCompressAllocatesOnlyTheBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool discards items at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	src := benchField()[:256<<10]
	if n := testing.AllocsPerRun(20, func() { Compress(src) }); n != 1 {
		t.Errorf("Compress allocated %v times per call, want 1", n)
	}
	if block := Compress(src); cap(block) != len(block) {
		t.Errorf("block of %d bytes has capacity %d", len(block), cap(block))
	}
}

// benchField is 1 MiB of field-like float32 data, moderately
// compressible: one word in ten has a random low byte.
func benchField() []byte {
	src := make([]byte, 1<<20)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < len(src); i += 4 {
		if rng.Float32() < 0.1 {
			src[i] = byte(rng.Intn(256))
		}
	}
	return src
}

// zeroRunField is 1 MiB of float32 volume fractions shaped like the
// asteroid arrays: long runs of 0.0 between short ramps of distinct
// values, so most of its matches are offset-4 overlapping copies.
func zeroRunField() []byte {
	vals := make([]float32, 1<<18)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < len(vals); {
		i += 200 + rng.Intn(2000) // a run of zeros
		for ramp := 8 + rng.Intn(24); ramp > 0 && i < len(vals); ramp-- {
			vals[i] = rng.Float32()
			i++
		}
	}
	src := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(src[4*i:], math.Float32bits(v))
	}
	return src
}

// Kept: the benchmark trace times LZ4 decode only (lz4.decode_*); compression shows there just as part of vtkio.write_s.
func BenchmarkCompressField(b *testing.B) {
	src := benchField()
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compress(src)
	}
}

// BenchmarkDecompressField is the decode layer alone, into a reused
// destination as vtkio decodes a chunk: on BenchmarkCompressField's field
// and on one whose long zero runs make offset-4 overlapping matches.
func BenchmarkDecompressField(b *testing.B) {
	for _, in := range []struct {
		name string
		src  []byte
	}{{"field", benchField()}, {"zero-runs", zeroRunField()}} {
		b.Run(in.name, func(b *testing.B) {
			comp := Compress(in.src)
			dst := make([]byte, len(in.src))
			b.SetBytes(int64(len(in.src)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := DecompressInto(dst, comp); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if !bytes.Equal(dst, in.src) {
				b.Fatal("decoded bytes differ from the input")
			}
		})
	}
}
