package lz4

import (
	"bytes"
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
