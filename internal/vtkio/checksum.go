package vtkio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Data integrity. A .vnd file may carry an optional trailing checksum
// section: one CRC32C (Castagnoli) per fixed-size page of each array's
// stored (compressed) bytes, packed little-endian uint32 in array order,
// written after the last array block. The header points at it via the
// "checksums" field; old readers unmarshal the header JSON without that
// field and never touch the trailing bytes, so checksum-bearing files
// stay readable by readers that predate the section.
//
// The table is read once, when the file is opened (it is 4 bytes per
// 64 KiB stored). Verification is lazy: an array read checks only the
// pages covering the extent it fetched, in the buffer the extent landed
// in and before any codec runs. A mismatch wraps ErrChecksum so callers
// (the NDP server's decode boundary) can distinguish lying bytes from
// every other failure.

// ChecksumAlgo names the only supported page-checksum algorithm.
const ChecksumAlgo = "crc32c"

// DefaultChecksumPageSize is the stored-byte span each CRC covers.
// Small enough to localize a flipped bit to one page in error reports,
// large enough that the table adds well under 0.01% to the file.
const DefaultChecksumPageSize = 64 << 10

// ErrChecksum reports stored bytes that fail their recorded CRC32C.
// Callers match with errors.Is to tell corruption apart from missing
// arrays, codec failures, and transport errors.
var ErrChecksum = errors.New("vtkio: checksum mismatch")

// castagnoli is the CRC32C polynomial table; package-level so every
// checksum in the process shares the one kernel (crc32 uses SSE4.2/ARM
// instructions through it).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of data — the whole-object checksum the
// brick manifests carry and the page checksum the .vnd trailer stores.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// ChecksumInfo is the header's pointer to the trailing checksum section.
type ChecksumInfo struct {
	// Algo is the checksum algorithm; only "crc32c" is defined.
	Algo string `json:"algo"`
	// PageSize is the stored-byte span each table entry covers.
	PageSize int `json:"pageSize"`
	// Offset is the absolute file offset of the packed CRC table.
	Offset int64 `json:"offset"`
	// Pages is the total entry count: the sum over arrays of
	// ceil(CompressedSize/PageSize).
	Pages int `json:"pages"`
}

// pageCount returns how many PageSize pages cover size stored bytes.
func pageCount(size int64, pageSize int) int64 {
	if size <= 0 {
		return 0
	}
	return (size + int64(pageSize) - 1) / int64(pageSize)
}

// pageCRCs computes the page checksums of the concatenation of chunks,
// paging across chunk boundaries (pages are over the array's stored
// extent, not per chunk).
func pageCRCs(chunks [][]byte, pageSize int) []uint32 {
	var out []uint32
	crc := uint32(0)
	fill := 0
	for _, c := range chunks {
		for len(c) > 0 {
			take := pageSize - fill
			if take > len(c) {
				take = len(c)
			}
			crc = crc32.Update(crc, castagnoli, c[:take])
			fill += take
			c = c[take:]
			if fill == pageSize {
				out = append(out, crc)
				crc, fill = 0, 0
			}
		}
	}
	if fill > 0 {
		out = append(out, crc)
	}
	return out
}

// checksumStarts returns, per array, the index of its first entry in
// the CRC table, plus the total entry count the arrays derive.
func checksumStarts(arrays []ArrayInfo, pageSize int) ([]int64, int64) {
	starts := make([]int64, len(arrays))
	var total int64
	for i := range arrays {
		starts[i] = total
		total += pageCount(arrays[i].CompressedSize(), pageSize)
	}
	return starts, total
}

// readChecksums validates the header's checksum section and reads its
// table. It rejects geometry that cannot be trusted: unknown algorithm,
// non-positive page size, a page count that disagrees with what the array
// extents derive, or a table that falls outside the file. Returns the
// per-array table start indices and the table.
func readChecksums(src io.ReaderAt, h *Header) ([]int64, []uint32, error) {
	ck := h.Checksums
	if ck.Algo != ChecksumAlgo {
		return nil, nil, fmt.Errorf("vtkio: unsupported checksum algo %q", ck.Algo)
	}
	if ck.PageSize <= 0 {
		return nil, nil, fmt.Errorf("vtkio: checksum page size %d", ck.PageSize)
	}
	if ck.Offset < 0 {
		return nil, nil, fmt.Errorf("vtkio: checksum section at negative offset %d", ck.Offset)
	}
	starts, total := checksumStarts(h.Arrays, ck.PageSize)
	if int64(ck.Pages) != total {
		return nil, nil, fmt.Errorf("vtkio: checksum section has %d pages, arrays derive %d", ck.Pages, total)
	}
	// The table is 4 bytes per entry; guard the multiplication and the
	// end offset against int64 wraparound before reading the file.
	tableLen := total * 4
	if tableLen < 0 || ck.Offset > (1<<62)-tableLen {
		return nil, nil, fmt.Errorf("vtkio: checksum section at %d overflows (%d pages)", ck.Offset, ck.Pages)
	}
	// Read in bounded pieces (one, for any real file: a piece covers
	// 16 GiB of stored data at the default page size) so a header lying
	// about its page count fails on a read past the end of the file
	// before it can make us allocate what it claims.
	const piece = 1 << 18
	crcs := make([]uint32, 0, min(total, piece))
	buf := make([]byte, 4*min(total, piece))
	for done := int64(0); done < total; done = int64(len(crcs)) {
		b := buf[:4*min(total-done, piece)]
		if _, err := readFullAt(src, b, ck.Offset+4*done); err != nil {
			return nil, nil, fmt.Errorf("vtkio: checksum section [%d,%d) outside file: %w",
				ck.Offset, ck.Offset+tableLen, err)
		}
		for i := 0; i < len(b); i += 4 {
			crcs = append(crcs, binary.LittleEndian.Uint32(b[i:]))
		}
	}
	return starts, crcs, nil
}

// VerifyChecksums reads every array's stored extent and checks it
// against the CRC table, without decompressing anything. Returns nil
// immediately for files with no checksum section (there is nothing to
// verify against), an ErrChecksum-wrapping error naming the first bad
// page otherwise. This is the scrubber's workhorse: it touches every
// stored byte once, at I/O cost only, through one pooled buffer.
func (r *Reader) VerifyChecksums() error {
	if r.meta.header.Checksums == nil {
		return nil
	}
	for i := range r.meta.header.Arrays {
		if err := r.verifyArray(i); err != nil {
			return err
		}
	}
	return nil
}

// verifyArray is one array's share of VerifyChecksums; its own function
// so the pooled extent goes back after each array.
func (r *Reader) verifyArray(idx int) error {
	ext := getExtent(r.meta.header.Arrays[idx].CompressedSize())
	defer putExtent(ext)
	return r.readSpan(idx, 0, *ext)
}

// verifyPages checks data, array idx's stored bytes from the page-aligned
// offset lo of its extent, against its slice of the CRC table.
func (m *Meta) verifyPages(idx int, lo int64, data []byte) error {
	pageSize := int64(m.header.Checksums.PageSize)
	first := lo / pageSize
	crcs := m.crcs[m.ckStart[idx]+first:]
	for p, off := int64(0), int64(0); off < int64(len(data)); p, off = p+1, off+pageSize {
		end := min(off+pageSize, int64(len(data)))
		if got, want := Checksum(data[off:end]), crcs[p]; got != want {
			return fmt.Errorf("%w: array %q page %d (stored bytes [%d,%d)): crc %08x, recorded %08x",
				ErrChecksum, m.header.Arrays[idx].Name, first+p, lo+off, lo+end, got, want)
		}
	}
	return nil
}
