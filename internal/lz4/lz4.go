// Package lz4 implements the LZ4 block format (compression and
// decompression) using only the standard library.
//
// The paper evaluates LZ4 because VTK supports it natively and its cheap
// decompression makes it the better choice than GZip once network transfer
// stops dominating. Since this reproduction is stdlib-only, the block
// format — token byte with literal/match length nibbles, little-endian
// 16-bit match offsets, 255-terminated length extensions — is implemented
// from scratch. The compressor is the greedy single-probe hash-chain
// variant used by the LZ4 "fast" reference implementation; output is valid
// LZ4 block data decodable by any conforming decoder.
package lz4

import (
	"encoding/binary"
	"errors"
	"fmt"
)

const (
	minMatch     = 4  // smallest encodable match
	mfLimit      = 12 // matches must start at least this far from the end
	lastLiterals = 5  // the final 5 bytes must be literals
	maxOffset    = 65535
	hashLog      = 16
	hashShift    = 32 - hashLog
)

// ErrCorrupt is returned by Decompress when the input is not a valid LZ4
// block or would overflow the declared decompressed size.
var ErrCorrupt = errors.New("lz4: corrupt block")

func hash4(v uint32) uint32 {
	// Fibonacci hashing constant used by the reference implementation.
	return (v * 2654435761) >> hashShift
}

// Compress compresses src as a single LZ4 block and returns the block.
// An empty src yields an empty block.
func Compress(src []byte) []byte {
	return AppendCompressed(nil, src)
}

// AppendCompressed appends the LZ4 block encoding of src to dst and returns
// the extended slice.
func AppendCompressed(dst, src []byte) []byte {
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

// appendSequence appends one LZ4 sequence. A matchLen of 0 emits the final
// literals-only sequence (no offset field).
func appendSequence(dst, literals []byte, offset, matchLen int) []byte {
	litLen := len(literals)
	var token byte
	if litLen >= 15 {
		token = 0xF0
	} else {
		token = byte(litLen) << 4
	}
	ml := 0
	if matchLen > 0 {
		ml = matchLen - minMatch
		if ml >= 15 {
			token |= 0x0F
		} else {
			token |= byte(ml)
		}
	}
	dst = append(dst, token)
	if litLen >= 15 {
		dst = appendLenExt(dst, litLen-15)
	}
	dst = append(dst, literals...)
	if matchLen > 0 {
		dst = append(dst, byte(offset), byte(offset>>8))
		if ml >= 15 {
			dst = appendLenExt(dst, ml-15)
		}
	}
	return dst
}

func appendLenExt(dst []byte, n int) []byte {
	for n >= 255 {
		dst = append(dst, 255)
		n -= 255
	}
	return append(dst, byte(n))
}

// Decompress decodes the LZ4 block src into a new slice of exactly
// decompressedSize bytes: it allocates and calls DecompressInto.
func Decompress(src []byte, decompressedSize int) ([]byte, error) {
	if decompressedSize < 0 {
		return nil, fmt.Errorf("%w: negative size", ErrCorrupt)
	}
	dst := make([]byte, decompressedSize)
	if err := DecompressInto(dst, src); err != nil {
		return nil, err
	}
	return dst, nil
}

// DecompressInto decodes the LZ4 block src into dst, which must be
// exactly the block's decompressed size. It writes only dst[:len(dst)]
// and returns ErrCorrupt (wrapped with detail) if the block is malformed
// or decodes to fewer or more bytes than dst holds; dst's contents are
// then unspecified.
func DecompressInto(dst, src []byte) error {
	if len(dst) == 0 {
		if len(src) != 0 {
			return fmt.Errorf("%w: trailing data in empty block", ErrCorrupt)
		}
		return nil
	}
	i, o := 0, 0 // read position in src, write position in dst
	for {
		if i >= len(src) {
			return fmt.Errorf("%w: truncated at token", ErrCorrupt)
		}
		token := src[i]
		i++
		// Literals.
		litLen := int(token >> 4)
		if litLen == 15 {
			n, ni, err := readLenExt(src, i)
			if err != nil {
				return err
			}
			litLen += n
			i = ni
		}
		if litLen > len(src)-i {
			return fmt.Errorf("%w: literal run overruns input", ErrCorrupt)
		}
		if litLen > len(dst)-o {
			return fmt.Errorf("%w: output overflow in literals", ErrCorrupt)
		}
		copy(dst[o:], src[i:i+litLen])
		o += litLen
		i += litLen
		if i == len(src) {
			// End of block: final sequence carries literals only.
			if o != len(dst) {
				return fmt.Errorf("%w: decoded %d bytes, want %d",
					ErrCorrupt, o, len(dst))
			}
			return nil
		}
		// Match.
		if i+2 > len(src) {
			return fmt.Errorf("%w: truncated offset", ErrCorrupt)
		}
		offset := int(src[i]) | int(src[i+1])<<8
		i += 2
		if offset == 0 || offset > o {
			return fmt.Errorf("%w: bad offset %d at output %d",
				ErrCorrupt, offset, o)
		}
		matchLen := int(token & 0x0F)
		if matchLen == 15 {
			n, ni, err := readLenExt(src, i)
			if err != nil {
				return err
			}
			matchLen += n
			i = ni
		}
		matchLen += minMatch
		if matchLen > len(dst)-o {
			return fmt.Errorf("%w: output overflow in match", ErrCorrupt)
		}
		// Overlapping copy must proceed byte-wise.
		start := o - offset
		for j := 0; j < matchLen; j++ {
			dst[o+j] = dst[start+j]
		}
		o += matchLen
	}
}

func readLenExt(src []byte, i int) (n, next int, err error) {
	for {
		if i >= len(src) {
			return 0, 0, fmt.Errorf("%w: truncated length extension", ErrCorrupt)
		}
		b := src[i]
		i++
		n += int(b)
		if b != 255 {
			return n, i, nil
		}
	}
}
