package lz4

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
)

// maxFuzzOutput caps what one fuzz input may expand to: length extension
// bytes let a short block declare a match of len(block)*255 bytes.
const maxFuzzOutput = 1 << 20

// referenceDecode is the block format written the slow, obvious way: it
// grows its output a byte at a time and knows nothing about destination
// sizes. It is what DecompressInto is compared against, so it stays here
// and stays simple. ok is false for a malformed block; big is true when
// the block is well formed so far but expands past maxFuzzOutput.
func referenceDecode(src []byte) (out []byte, ok, big bool) {
	if len(src) == 0 {
		return nil, true, false
	}
	lenExt := func(i, n int) (int, int, bool) {
		for {
			if i >= len(src) {
				return 0, 0, false
			}
			b := src[i]
			i++
			n += int(b)
			if b != 255 {
				return n, i, true
			}
		}
	}
	i := 0
	for {
		if i >= len(src) {
			return nil, false, false
		}
		token := src[i]
		i++
		lit := int(token >> 4)
		if lit == 15 {
			var good bool
			if lit, i, good = lenExt(i, lit); !good {
				return nil, false, false
			}
		}
		if lit > len(src)-i {
			return nil, false, false
		}
		if len(out)+lit > maxFuzzOutput {
			return nil, false, true
		}
		for _, b := range src[i : i+lit] {
			out = append(out, b)
		}
		i += lit
		if i == len(src) {
			// An empty output is spelled as an empty block, nothing else.
			return out, len(out) > 0, false
		}
		if i+2 > len(src) {
			return nil, false, false
		}
		offset := int(src[i]) | int(src[i+1])<<8
		i += 2
		if offset == 0 || offset > len(out) {
			return nil, false, false
		}
		match := int(token & 0x0F)
		if match == 15 {
			var good bool
			if match, i, good = lenExt(i, match); !good {
				return nil, false, false
			}
		}
		match += minMatch
		if len(out)+match > maxFuzzOutput {
			return nil, false, true
		}
		for j := 0; j < match; j++ {
			out = append(out, out[len(out)-offset])
		}
	}
}

// referenceCompress is the compressor as it was before its forward match
// extension went a word at a time, kept verbatim: AppendCompressed must
// emit exactly its blocks, since every stored LZ4 object in the testbed
// is one of them.
func referenceCompress(dst, src []byte) []byte {
	if len(src) == 0 {
		return dst
	}
	var table [1 << hashLog]int32 // position+1 of most recent 4-byte hash

	anchor := 0
	pos := 0
	// Matches may only start while at least mfLimit bytes remain.
	matchableEnd := len(src) - mfLimit
	// Matches may extend up to the last-literals boundary.
	extendEnd := len(src) - lastLiterals

	for pos < matchableEnd {
		cur := binary.LittleEndian.Uint32(src[pos:])
		h := hash4(cur)
		cand := int(table[h]) - 1
		table[h] = int32(pos + 1)
		if cand < 0 || pos-cand > maxOffset ||
			binary.LittleEndian.Uint32(src[cand:]) != cur {
			pos++
			continue
		}
		// Extend the match forward.
		matchLen := minMatch
		for pos+matchLen < extendEnd && src[cand+matchLen] == src[pos+matchLen] {
			matchLen++
		}
		// Extend backward into pending literals.
		for pos > anchor && cand > 0 && src[pos-1] == src[cand-1] {
			pos--
			cand--
			matchLen++
		}
		dst = appendSequence(dst, src[anchor:pos], pos-cand, matchLen)
		pos += matchLen
		anchor = pos
	}
	// Final literal-only sequence.
	return appendSequence(dst, src[anchor:], 0, 0)
}

// decodeGuarded runs DecompressInto on a destination of n bytes that sits
// inside a longer backing array, and fails the test if a byte past
// len(dst) changed.
func decodeGuarded(t *testing.T, block []byte, n int) ([]byte, error) {
	t.Helper()
	const guard = 64
	buf := bytes.Repeat([]byte{0xA5}, n+guard)
	err := DecompressInto(buf[:n], block)
	if !bytes.Equal(buf[n:], bytes.Repeat([]byte{0xA5}, guard)) {
		t.Fatalf("DecompressInto(dst of %d bytes) wrote past len(dst)", n)
	}
	return buf[:n], err
}

// overlapTail is the literals that end every overlapBlock.
const overlapTail = "end!!"

// overlapBlock builds by hand a block of three sequences: lits distinct
// literals, one match of matchLen bytes at offset, and overlapTail as
// the final literals. It decodes to lits+matchLen+len(overlapTail) bytes.
func overlapBlock(lits, offset, matchLen int) []byte {
	literals := make([]byte, lits)
	for i := range literals {
		literals[i] = byte(i*37 + 11)
	}
	block := appendSequence(nil, literals, offset, matchLen)
	return appendSequence(block, []byte(overlapTail), 0, 0)
}

// TestOverlappingMatchesMatchReference decodes a match at every offset
// from 1 to 20 and every length from 4 to 300, so the doubling copy
// crosses each of its boundaries (offset times a power of two) at each
// offset, and holds the output to referenceDecode.
func TestOverlappingMatchesMatchReference(t *testing.T) {
	for offset := 1; offset <= 20; offset++ {
		for matchLen := minMatch; matchLen <= 300; matchLen++ {
			block := overlapBlock(offset+3, offset, matchLen)
			want, ok, _ := referenceDecode(block)
			if !ok || len(want) != offset+3+matchLen+len(overlapTail) {
				t.Fatalf("offset %d, match %d: reference decoded %d bytes, ok = %v",
					offset, matchLen, len(want), ok)
			}
			got, err := decodeGuarded(t, block, len(want))
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("offset %d, match %d: err = %v, first difference at %d",
					offset, matchLen, err, firstDiff(got, want))
			}
		}
	}
}

// fuzzSeedInputs are the round-trip tests' cases, at sizes a fuzz worker
// can mutate quickly.
func fuzzSeedInputs() [][]byte {
	rng := rand.New(rand.NewSource(42))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	seeds := [][]byte{
		nil,
		[]byte("a"),
		[]byte("0123456789abcdef0123456789abcdef"),
		bytes.Repeat([]byte("abcd"), 1000),
		make([]byte, 1<<14),
		random(2000),
		[]byte(strings.Repeat("the quick brown fox jumps over the lazy dog; ", 50)),
	}
	for _, n := range []int{19, 270, 274, 529} { // match-length extension bytes
		s := append([]byte("0123456789abcdef"), bytes.Repeat([]byte{'Q'}, n)...)
		seeds = append(seeds, append(s, "tail-literals"...))
	}
	for _, n := range []int{15, 270, 525} { // literal-length extension bytes
		seeds = append(seeds, append(random(n), bytes.Repeat([]byte("xyzw"), 100)...))
	}
	unit := random(60_000) // a match just inside the 64 KiB window
	seeds = append(seeds, append(append([]byte{}, unit...), unit...))
	field := make([]byte, 0, 4000) // float32 field with long equal runs
	for i := 0; i < 1000; i++ {
		var v uint32
		if i%100 < 3 {
			v = 0x3f800000
		}
		field = append(field, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return append(seeds, field)
}

// FuzzDecompress holds DecompressInto to the reference decoder on
// arbitrary blocks: same verdict, same bytes, an error for any
// destination shorter or longer than the block, and never a write past
// len(dst).
func FuzzDecompress(f *testing.F) {
	for _, in := range fuzzSeedInputs() {
		f.Add(Compress(in), uint16(len(in)))
	}
	f.Add([]byte{0x00}, uint16(0))                                          // non-empty block, empty output
	f.Add([]byte{0x10, 'a', 0x05, 0x00}, uint16(8))                         // offset past the output
	f.Add([]byte{0x10, 'a', 0x00, 0x00}, uint16(8))                         // zero offset
	f.Add([]byte{0x1F, 'a', 0x01, 0x00, 0xFF, 0xFF, 0x00, 0x00}, uint16(9)) // long overlapping match, no tail
	// Long overlapping matches, each of many periods.
	for _, offset := range []int{1, 2, 3, 5, 7, 8, 9} {
		lits, matchLen := offset+2, 300+offset
		f.Add(overlapBlock(lits, offset, matchLen), uint16(lits+matchLen+len(overlapTail)))
	}

	f.Fuzz(func(t *testing.T, block []byte, size uint16) {
		want, ok, big := referenceDecode(block)
		// Whatever the block is, a destination of the fuzzer's choosing
		// must never be overrun or panic.
		got, err := decodeGuarded(t, block, int(size))
		if big {
			return
		}
		if !ok {
			if err == nil {
				t.Fatalf("malformed block decoded into %d bytes", size)
			}
			return
		}
		if (err == nil) != (int(size) == len(want)) {
			t.Fatalf("dst of %d bytes for a %d-byte block: err = %v", size, len(want), err)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatal("DecompressInto differs from the reference decoder")
		}
		// The exact size decodes to the reference's bytes; one byte either
		// side is an error.
		n := len(want)
		if got, err = decodeGuarded(t, block, n); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("dst of exactly %d bytes: err = %v, equal = %v", n, err, bytes.Equal(got, want))
		}
		if _, err = decodeGuarded(t, block, n+1); err == nil {
			t.Fatalf("dst one byte longer than the %d-byte block accepted", n)
		}
		if n > 0 {
			if _, err = decodeGuarded(t, block, n-1); err == nil {
				t.Fatalf("dst one byte shorter than the %d-byte block accepted", n)
			}
		}
		if alloc, err := Decompress(block, n); err != nil || !bytes.Equal(alloc, want) {
			t.Fatalf("Decompress wrapper: err = %v", err)
		}
	})
}

// FuzzValidate holds Validate to DecompressInto: for any block and any
// destination size, Validate accepts exactly when DecompressInto into
// that many bytes does, and an accepted block never expands past
// MaxExpansion times its length.
func FuzzValidate(f *testing.F) {
	for _, in := range fuzzSeedInputs() {
		f.Add(Compress(in), uint16(len(in)))
	}
	f.Add([]byte{0x00}, uint16(0))
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0x10, 'a', 0x05, 0x00}, uint16(8))
	f.Add([]byte{0x1F, 'a', 0x01, 0x00, 0xFF, 0xFF, 0x00, 0x00}, uint16(9))
	f.Add([]byte{0x1F, 'a', 0x01, 0x00, 0xFF, 0xFF, 0x00, 0x00, 0x00}, uint16(530))

	f.Fuzz(func(t *testing.T, block []byte, size uint16) {
		n := int(size)
		verr := Validate(block, n)
		derr := DecompressInto(make([]byte, n), block)
		if (verr == nil) != (derr == nil) {
			t.Fatalf("%d-byte block into %d bytes: Validate says %v, DecompressInto %v", len(block), n, verr, derr)
		}
		if verr != nil && verr.Error() != derr.Error() {
			t.Fatalf("Validate reports %q, DecompressInto %q", verr, derr)
		}
		if verr == nil && n > MaxExpansion*len(block) {
			t.Fatalf("%d-byte block decoded to %d bytes, past MaxExpansion", len(block), n)
		}
	})
}

// FuzzCompressMatchesReference holds AppendCompressed to
// referenceCompress byte for byte, so a faster compressor never changes
// a stored object. Among the seeds are inputs whose last match stops
// 0-8 bytes short of the last-literals boundary, where the word-wide
// extension hands over to its byte-wise tail.
func FuzzCompressMatchesReference(f *testing.F) {
	f.Add([]byte{})
	for n := 1; n < mfLimit+2; n++ {
		f.Add(bytes.Repeat([]byte{'z'}, n))
	}
	f.Add(make([]byte, 1<<12))
	f.Add(zeroRunField()[:1<<16])
	f.Add(benchField())
	for _, in := range fuzzSeedInputs() {
		f.Add(in)
	}
	rng := rand.New(rand.NewSource(7))
	unit := make([]byte, 40)
	rng.Read(unit)
	for _, n := range []int{25, 64, 301} { // the second copy's length
		for short := 0; short <= 8; short++ {
			// The second copy of unit matches the first up to its
			// last byte, which differs and sits short bytes before
			// extendEnd.
			in := append([]byte{}, unit...)
			for len(in) < len(unit)+n {
				in = append(in, in[len(in)-len(unit)])
			}
			in[len(in)-1] ^= 0xFF
			in = append(in, bytes.Repeat([]byte{0xEE}, lastLiterals-1+short)...)
			f.Add(in)
		}
	}

	f.Fuzz(func(t *testing.T, src []byte) {
		prefix := []byte("prefix")
		got := AppendCompressed(append([]byte{}, prefix...), src)
		want := referenceCompress(append([]byte{}, prefix...), src)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d-byte input: block of %d bytes, reference %d; first difference at %d",
				len(src), len(got), len(want), firstDiff(got, want))
		}
	})
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
