package vtkio

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Chunk range index. A file records, for every chunk of every array, the
// least and greatest of the chunk's non-NaN values, so a reader that
// knows which values a query can use reads only the chunks that may hold
// them (the NDP server's uncached fetch; see core's readPlanned). The table
// is 8 bytes per chunk — float32 lo then hi, little-endian — over every
// array's chunks in header order, then the CRC32C of those bytes. A chunk
// with no non-NaN value records lo = +Inf and hi = -Inf.
//
// It lives in the header's "ranges" field as one base64 string, so its
// length depends only on the chunk count, never on the values: a
// same-size overwrite keeps the header's length and every offset after
// it. The header itself carries no checksum, so the table has its own,
// checked when the metadata is read; a table that fails it fails the
// read with ErrChecksum rather than skip chunks a query needs. Readers
// that predate the field never look at it.
//
// Write records the table in the files it checksums: a reader may skip a
// chunk on the table's word only where the bytes it does read are
// verified too. A file without checksums keeps the header it always had,
// whose bytes depend on the data's shape alone. Lossy (qlz4) files carry
// no table either: their stored values are not the ones the bounds were
// taken of.

// rangeEntrySize is one chunk's share of the table.
const rangeEntrySize = 8

// putRange writes the range entry of one chunk's values into
// dst[:rangeEntrySize]; Write's chunk workers call it for the chunk they
// compress.
func putRange(dst []byte, vals []float32) {
	min32, max32 := float32(math.Inf(1)), float32(math.Inf(-1))
	for _, v := range vals {
		// NaN fails both comparisons, so it never widens the range.
		if v < min32 {
			min32 = v
		}
		if v > max32 {
			max32 = v
		}
	}
	binary.LittleEndian.PutUint32(dst, math.Float32bits(min32))
	binary.LittleEndian.PutUint32(dst[4:], math.Float32bits(max32))
}

// checkRanges holds the header's range table to the chunk count its
// arrays derive and to its own CRC; either failing is ErrChecksum.
func checkRanges(h *Header) error {
	if len(h.Ranges) == 0 {
		return nil
	}
	chunks := 0
	for i := range h.Arrays {
		chunks += len(h.Arrays[i].Chunks)
	}
	if want := rangeEntrySize*chunks + 4; len(h.Ranges) != want {
		return fmt.Errorf("%w: range table of %d bytes, %d chunks derive %d", ErrChecksum, len(h.Ranges), chunks, want)
	}
	body := h.Ranges[:len(h.Ranges)-4]
	if got, want := Checksum(body), binary.LittleEndian.Uint32(h.Ranges[len(body):]); got != want {
		return fmt.Errorf("%w: range table crc %08x, recorded %08x", ErrChecksum, got, want)
	}
	return nil
}

// ChunkRange is one chunk of an array as the range table records it.
type ChunkRange struct {
	// Start and End are the chunk's values, [Start, End) in the array.
	Start, End int
	// Lo and Hi bound the chunk's non-NaN values; +Inf and -Inf when it
	// has none.
	Lo, Hi float32
}

// ChunkRanges returns the named array's chunks with their recorded value
// ranges, in order, in dst's storage when it is large enough; nil when
// the file records none for the array: a file written before the table
// or without checksums, or a lossy array. A chunk whose byte span splits
// a value counts that value as its own.
func (r *Reader) ChunkRanges(name string, dst []ChunkRange) ([]ChunkRange, error) {
	idx, err := r.arrayIndex(name)
	if err != nil {
		return nil, err
	}
	h := &r.meta.header
	if len(h.Ranges) == 0 || h.Arrays[idx].Codec == LossyCodecName {
		return nil, nil
	}
	entry := 0
	for i := 0; i < idx; i++ {
		entry += len(h.Arrays[i].Chunks)
	}
	table := h.Ranges[rangeEntrySize*entry:]
	dst = dst[:0]
	roff := 0
	for i, c := range h.Arrays[idx].Chunks {
		e := table[rangeEntrySize*i:]
		dst = append(dst, ChunkRange{
			Start: roff / 4, End: (roff + c.Raw + 3) / 4,
			Lo: math.Float32frombits(binary.LittleEndian.Uint32(e)),
			Hi: math.Float32frombits(binary.LittleEndian.Uint32(e[4:])),
		})
		roff += c.Raw
	}
	return dst, nil
}
