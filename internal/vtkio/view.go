package vtkio

import "unsafe"

// Stored values are little-endian float32, which on a little-endian host
// is the in-memory layout of a []float32. floatBytes exposes that memory
// so an array is decoded, copied and checksummed where it already lives
// instead of through a second buffer and a per-value conversion loop.
// This file is the tree's only use of unsafe.

// hostBigEndian reports whether this host stores the low byte of a word
// last, in which case bytes moved through floatBytes need swapWords.
var hostBigEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 0
}()

// floatBytes returns v's backing memory as bytes, in host byte order. The
// slice aliases v: it is valid exactly as long as v is.
func floatBytes(v []float32) []byte {
	if len(v) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 4*len(v))
}

// swapWords reverses the bytes of every 4-byte word of b in place when
// swap is set: the one conversion between the file's little-endian words
// and a big-endian host's. Callers pass hostBigEndian. It moves bytes
// only, so NaN payloads and signed zeros survive.
func swapWords(b []byte, swap bool) {
	if !swap {
		return
	}
	for i := 0; i+4 <= len(b); i += 4 {
		b[i], b[i+1], b[i+2], b[i+3] = b[i+3], b[i+2], b[i+1], b[i]
	}
}
