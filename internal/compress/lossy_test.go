package compress

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func floatsToBytes(vals []float32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v))
	}
	return out
}

func bytesToFloats(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func qlz4RoundTrip(t *testing.T, vals []float32, bound float64) []float32 {
	t.Helper()
	c := QuantizedLZ4(bound)
	src := floatsToBytes(vals)
	enc, err := c.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decompress(t, c, enc, len(src))
	if err != nil {
		t.Fatal(err)
	}
	got := bytesToFloats(dec)
	if len(got) != len(vals) {
		t.Fatalf("got %d values, want %d", len(got), len(vals))
	}
	return got
}

func TestQLZ4ErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float32, 10_000)
	for i := range vals {
		vals[i] = rng.Float32()*200 - 100
	}
	for _, bound := range []float64{1e-3, 0.01, 0.5} {
		got := qlz4RoundTrip(t, vals, bound)
		for i := range vals {
			// A float32 round of the reconstruction adds at most a ulp.
			if d := math.Abs(float64(got[i]) - float64(vals[i])); d > bound*1.001 {
				t.Fatalf("bound %v: value %d off by %v", bound, i, d)
			}
		}
	}
}

func TestQLZ4SmoothDataCompressesHard(t *testing.T) {
	// Smooth field: deltas quantize to tiny codes -> large ratios, unlike
	// lossless codecs on the same data.
	vals := make([]float32, 1<<16)
	for i := range vals {
		vals[i] = float32(math.Sin(float64(i) / 300))
	}
	src := floatsToBytes(vals)
	lossy, err := QuantizedLZ4(1e-3).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	lossless, err := byKind(t, LZ4).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(lossy)*4 > len(lossless) {
		t.Errorf("qlz4 %d bytes vs lz4 %d; expected >4x better on smooth data",
			len(lossy), len(lossless))
	}
}

func TestQLZ4NyxStyleData(t *testing.T) {
	// The motivating case: noisy mantissas defeat lossless codecs, but an
	// error bound restores compressibility.
	rng := rand.New(rand.NewSource(2))
	vals := make([]float32, 1<<15)
	for i := range vals {
		vals[i] = float32(math.Exp(rng.NormFloat64() * 1.5))
	}
	src := floatsToBytes(vals)
	lossy, err := QuantizedLZ4(0.01).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	lossless, err := byKind(t, Gzip).Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(lossy) >= len(lossless) {
		t.Errorf("qlz4 %d bytes should beat gzip %d on noisy floats", len(lossy), len(lossless))
	}
	got := qlz4RoundTrip(t, vals, 0.01)
	for i := range vals {
		if d := math.Abs(float64(got[i]) - float64(vals[i])); d > 0.0101 {
			t.Fatalf("value %d off by %v", i, d)
		}
	}
}

func TestQLZ4SpecialValues(t *testing.T) {
	vals := []float32{
		0, 1, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.MaxFloat32, -math.MaxFloat32, 1e-30, 5,
	}
	got := qlz4RoundTrip(t, vals, 0.1)
	// NaN/Inf/huge values are escaped verbatim: exact.
	if !math.IsNaN(float64(got[2])) {
		t.Errorf("NaN lost: %v", got[2])
	}
	if !math.IsInf(float64(got[3]), 1) || !math.IsInf(float64(got[4]), -1) {
		t.Errorf("Inf lost: %v %v", got[3], got[4])
	}
	if got[5] != math.MaxFloat32 || got[6] != -math.MaxFloat32 {
		t.Errorf("extremes off: %v %v", got[5], got[6])
	}
	for _, i := range []int{0, 1, 8} {
		if d := math.Abs(float64(got[i]) - float64(vals[i])); d > 0.1001 {
			t.Errorf("value %d off by %v", i, d)
		}
	}
}

func TestQLZ4NoErrorAccumulation(t *testing.T) {
	// A long ramp: prediction errors must not drift beyond the bound.
	vals := make([]float32, 100_000)
	for i := range vals {
		vals[i] = float32(i) * 0.001
	}
	got := qlz4RoundTrip(t, vals, 0.0005)
	worst := 0.0
	for i := range vals {
		if d := math.Abs(float64(got[i]) - float64(vals[i])); d > worst {
			worst = d
		}
	}
	if worst > 0.0005*1.01 {
		t.Errorf("worst drift %v exceeds bound", worst)
	}
}

func TestQLZ4Validation(t *testing.T) {
	c := QuantizedLZ4(0.1)
	if _, err := c.Compress(make([]byte, 6)); err == nil {
		t.Error("unaligned input accepted")
	}
	if _, err := QuantizedLZ4(0).Compress(make([]byte, 8)); err == nil {
		t.Error("zero bound accepted")
	}
	if _, err := QuantizedLZ4(-1).Compress(make([]byte, 8)); err == nil {
		t.Error("negative bound accepted")
	}
	if _, err := decompress(t, c, []byte{1, 2, 3}, 8); err == nil {
		t.Error("garbage accepted")
	}
	enc, err := c.Compress(floatsToBytes([]float32{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decompress(t, c, enc, 8); err == nil {
		t.Error("wrong size accepted")
	}
	for i := 0; i < len(enc); i++ {
		_, _ = decompress(t, c, enc[:i], 12) // must not panic
	}
}

func TestQLZ4QuickBound(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float32, len(raw))
		for i, r := range raw {
			vals[i] = float32(r) / 7
		}
		c := QuantizedLZ4(0.05)
		src := floatsToBytes(vals)
		enc, err := c.Compress(src)
		if err != nil {
			return false
		}
		dec, err := decompress(t, c, enc, len(src))
		if err != nil {
			return false
		}
		got := bytesToFloats(dec)
		for i := range vals {
			if math.Abs(float64(got[i])-float64(vals[i])) > 0.0501 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Kept: no benchmark workload stores quantized objects, so the qlz4 codec appears in no traced layer.
func BenchmarkQLZ4Compress(b *testing.B) {
	vals := make([]float32, 1<<18)
	for i := range vals {
		vals[i] = float32(math.Sin(float64(i) / 100))
	}
	src := floatsToBytes(vals)
	c := QuantizedLZ4(1e-3)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compress(src); err != nil {
			b.Fatal(err)
		}
	}
}
