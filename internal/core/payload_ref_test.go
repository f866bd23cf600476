package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vizndp/internal/bitset"
	"vizndp/internal/contour"
	"vizndp/internal/sim"
)

// The reference encoders: the byte-at-a-time builds EncodeSelection ran
// before the sizing walk and the exact-size build replaced them. They
// stay as the oracle FuzzEncodeSelection holds the encoder to, byte for
// byte, under every Encoding.

// refEncodeSelection is EncodeSelection by the reference builds: EncAuto
// builds both encodings and keeps the smaller. Bits past mask.Len() are
// cleared on a copy first, since the contract is that they are ignored.
func refEncodeSelection(mask *bitset.Bitset, values []float32, enc Encoding) (*Payload, error) {
	if mask.Len() != len(values) {
		return nil, fmt.Errorf("core: mask of %d bits for %d values", mask.Len(), len(values))
	}
	if n := mask.Len(); n&63 != 0 {
		mask = mask.Clone()
		mask.Words()[n>>6] &= 1<<uint(n&63) - 1
	}
	count := mask.Count()
	var body []byte
	switch enc {
	case EncIndexValue:
		body = refEncodeIndexValue(mask, values, count)
	case EncBlockBitmap:
		body = refEncodeBlockBitmap(mask, values)
	case EncAuto:
		iv := refEncodeIndexValue(mask, values, count)
		bb := refEncodeBlockBitmap(mask, values)
		if len(bb) < len(iv) {
			enc, body = EncBlockBitmap, bb
		} else {
			enc, body = EncIndexValue, iv
		}
	default:
		return nil, fmt.Errorf("core: unknown encoding %d", enc)
	}

	hdr := make([]byte, 0, 2+2*binary.MaxVarintLen64)
	hdr = append(hdr, payloadMagic, byte(enc))
	hdr = binary.AppendUvarint(hdr, uint64(mask.Len()))
	hdr = binary.AppendUvarint(hdr, uint64(count))
	return &Payload{
		Encoding:  enc,
		NumPoints: mask.Len(),
		Count:     count,
		Data:      append(hdr, body...),
	}, nil
}

func refEncodeIndexValue(mask *bitset.Bitset, values []float32, count int) []byte {
	// Indices as deltas (first index is a delta from -1, so every delta
	// is >= 1 and zero never appears).
	out := make([]byte, 0, count*5+count*4)
	prev := -1
	mask.ForEach(func(i int) {
		out = binary.AppendUvarint(out, uint64(i-prev))
		prev = i
	})
	mask.ForEach(func(i int) {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(values[i]))
	})
	return out
}

func refEncodeBlockBitmap(mask *bitset.Bitset, values []float32) []byte {
	n := mask.Len()
	numBlocks := (n + blockBits - 1) / blockBits
	var out []byte
	prevBlock := -1
	for b := 0; b < numBlocks; b++ {
		lo := b * blockBits
		hi := lo + blockBits
		if hi > n {
			hi = n
		}
		if refBlockEmpty(mask, lo, hi) {
			continue
		}
		out = binary.AppendUvarint(out, uint64(b-prevBlock))
		prevBlock = b
		// Presence bitmap for the block.
		nbytes := (hi - lo + 7) / 8
		bmStart := len(out)
		out = append(out, make([]byte, nbytes)...)
		var vals []byte
		for i := lo; i < hi; i++ {
			if mask.Get(i) {
				rel := i - lo
				out[bmStart+rel/8] |= 1 << (rel % 8)
				vals = binary.LittleEndian.AppendUint32(vals, math.Float32bits(values[i]))
			}
		}
		out = append(out, vals...)
	}
	return out
}

func refBlockEmpty(mask *bitset.Bitset, lo, hi int) bool {
	words := mask.Words()
	// lo is always 64-aligned because blockBits is a multiple of 64.
	w0 := lo >> 6
	w1 := (hi + 63) >> 6
	for w := w0; w < w1 && w < len(words); w++ {
		if words[w] != 0 {
			return false
		}
	}
	return true
}

// runMask builds an n-bit mask from little-endian uint16 run lengths,
// alternately clear and set, starting clear; points past the last run
// are clear.
func runMask(n int, runs []byte) *bitset.Bitset {
	mask := bitset.New(n)
	i, set := 0, false
	for ; len(runs) >= 2 && i < n; runs = runs[2:] {
		end := min(i+int(binary.LittleEndian.Uint16(runs)), n)
		for ; set && i < end; i++ {
			mask.Set(i)
		}
		i, set = end, !set
	}
	return mask
}

// runBytes encodes run lengths for runMask.
func runBytes(lengths ...int) []byte {
	var out []byte
	for _, r := range lengths {
		out = binary.LittleEndian.AppendUint16(out, uint16(r))
	}
	return out
}

// fuzzValues builds n values from raw little-endian float32 bit patterns,
// repeated; with fewer than four bytes, value i is i.
func fuzzValues(n int, raw []byte) []float32 {
	values := make([]float32, n)
	for i := range values {
		if len(raw) < 4 {
			values[i] = float32(i)
			continue
		}
		off := (4 * i) % (len(raw) &^ 3)
		values[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[off:]))
	}
	return values
}

// FuzzEncodeSelection holds EncodeSelection to the reference encoders
// byte for byte, under all three Encodings, on masks from run lengths
// (optionally with every bit past Len() set through Words()) and values
// from raw bit patterns.
func FuzzEncodeSelection(f *testing.F) {
	var special []byte
	for _, b := range []uint32{
		0x7fc00000, 0x7f800001, 0xffc00000, // NaNs, one with a payload
		0x7f800000, 0xff800000, // ±Inf
		0x80000000, 0x00000000, // -0, +0
		0x00000001, 0x807fffff, // subnormals
		0x3f800000, 0x7f7fffff, // 1, MaxFloat32
	} {
		special = binary.LittleEndian.AppendUint32(special, b)
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 63, 64, blockBits - 1, blockBits, blockBits + 1, 3*blockBits + 100} {
		// A random mask at ~86 % density, in runs.
		var dense []int
		for i := 0; i < n; {
			gap, set := rng.Intn(3), 1+rng.Intn(12)
			dense = append(dense, gap, set)
			i += gap + set
		}
		for _, m := range [][]byte{
			nil,                           // empty
			runBytes(0, n),                // all set
			runBytes(max(n-1, 0), 1),      // only the last bit
			runBytes(100, 3, 2000, 50, 1), // sparse and clustered
			runBytes(dense...),
		} {
			for _, stray := range []bool{false, true} {
				f.Add(uint16(n), m, stray, special)
			}
		}
	}
	f.Fuzz(func(t *testing.T, n16 uint16, m []byte, stray bool, raw []byte) {
		n := int(n16) % (4*blockBits + 1)
		mask := runMask(n, m)
		if stray && n&63 != 0 {
			mask.Words()[n>>6] |= ^uint64(0) << uint(n&63)
		}
		values := fuzzValues(n, raw)
		for _, enc := range []Encoding{EncIndexValue, EncBlockBitmap, EncAuto} {
			got, err := EncodeSelection(mask, values, enc)
			if err != nil {
				t.Fatalf("%v: %v", enc, err)
			}
			want, err := refEncodeSelection(mask, values, enc)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("%v: %d bytes differ from the reference's %d", enc, len(got.Data), len(want.Data))
			}
			if got.Encoding != want.Encoding || got.Count != want.Count || got.NumPoints != want.NumPoints {
				t.Fatalf("%v: payload %v/%d/%d, reference %v/%d/%d", enc,
					got.Encoding, got.Count, got.NumPoints, want.Encoding, want.Count, want.NumPoints)
			}
		}
	})
}

// BenchmarkEncodeSelection measures the payload encode on three 128^3
// mask shapes: a sparse random selection (index/value), the clustered
// 4 % contour of the wide workload's nyx density at isovalue 8 (block
// bitmap), and the dense 86 % contour of its five isovalues under
// EncAuto. MB/s is of payload bytes, as the
// benchmark's traced core.encode_mb_per_s is.
func BenchmarkEncodeSelection(b *testing.B) {
	ds, err := sim.NyxConfig{N: 128, Seed: 7}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	field := ds.Field("baryon_density")
	contourMask := func(isos ...float64) *bitset.Bitset {
		mask, err := contour.SelectCellCorners(ds.Grid, field.Values, isos)
		if err != nil {
			b.Fatal(err)
		}
		return mask
	}
	sparse, sparseVals := randomSelection(len(field.Values), 0.001, 9)
	for _, c := range []struct {
		name   string
		mask   *bitset.Bitset
		values []float32
		enc    Encoding
	}{
		{"sparse-indexvalue", sparse, sparseVals, EncIndexValue},
		{"clustered-blockbitmap", contourMask(8), field.Values, EncBlockBitmap},
		{"dense86-auto", contourMask(0.5, 1, 2, 4, 8), field.Values, EncAuto},
	} {
		b.Run(c.name, func(b *testing.B) {
			p, err := EncodeSelection(c.mask, c.values, c.enc)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(p.Data)))
			b.ReportMetric(p.Selectivity(), "selectivity")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p, err = EncodeSelection(c.mask, c.values, c.enc); err != nil {
					b.Fatal(err)
				}
			}
			encodeSink = p
		})
	}
}

var encodeSink *Payload
