// Package vtkio stores datasets on disk (or in an object store) in a
// binary format modelled on VTK image-data files: a self-describing
// header followed by per-array data blocks. Two properties of VTK's
// format matter to the paper and are preserved here:
//
//  1. Data-array selection: each array occupies an independent byte range
//     recorded in the header, so a reader can fetch only the arrays a
//     pipeline needs (the paper reads just v02/v03 out of 11 arrays).
//  2. Per-array compression: arrays are chunked and each chunk is
//     compressed independently with GZip or LZ4, as VTK does for its
//     appended data blocks.
//
// Layout:
//
//	magic "VND1" | uint32 BE header length | JSON header | array blocks
//
// Values are little-endian float32, matching the datasets in the paper
// (every array in Table I is float).
package vtkio

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"vizndp/internal/compress"
	"vizndp/internal/grid"
	"vizndp/internal/lz4"
)

// Magic identifies the file format.
const Magic = "VND1"

// DefaultChunkSize is the raw byte size of each compression chunk: four
// z-slices of a 128³ float32 array, the granularity at which the chunk
// range table lets a reader skip (see ranges.go). A file records its own
// chunking, so files written at another size read as they always did.
const DefaultChunkSize = 256 << 10

// maxHeaderSize bounds the JSON header to keep corrupt inputs from
// triggering huge allocations.
const maxHeaderSize = 16 << 20

// ChunkInfo records one compressed chunk of an array block.
type ChunkInfo struct {
	Comp int `json:"comp"` // compressed byte length
	Raw  int `json:"raw"`  // decompressed byte length
}

// LossyCodecName marks arrays stored with the error-bounded quantizing
// codec (see compress.QuantizedLZ4). The paper defers error-bounded
// floating-point compression to future work; this implements it.
const LossyCodecName = "qlz4"

// ArrayInfo describes one stored array.
type ArrayInfo struct {
	Name   string      `json:"name"`
	Codec  string      `json:"codec"`
	Offset int64       `json:"offset"` // absolute file offset of first chunk
	Chunks []ChunkInfo `json:"chunks"`
	// LossyBound is the absolute error bound when Codec is "qlz4";
	// zero otherwise.
	LossyBound float64 `json:"lossyBound,omitempty"`
}

// codec returns the array's codec implementation.
func (a *ArrayInfo) codec() (compress.Codec, error) {
	if a.Codec == LossyCodecName {
		if a.LossyBound <= 0 {
			return nil, fmt.Errorf("vtkio: array %q has lossy codec without a bound", a.Name)
		}
		return compress.QuantizedLZ4(a.LossyBound), nil
	}
	kind, err := compress.ParseKind(a.Codec)
	if err != nil {
		return nil, err
	}
	return compress.ByKind(kind)
}

// maxExpansion is the most raw bytes one stored byte of the array can
// decode to — exactly one for raw, deflate's 1032 for gzip — or 0 for a
// codec the read will refuse.
func (a *ArrayInfo) maxExpansion() int {
	kind, err := compress.ParseKind(a.Codec)
	switch {
	case a.Codec == LossyCodecName:
		return 4 * lz4.MaxExpansion // an LZ4 body of at least a byte per value
	case err != nil:
		return 0
	case kind == compress.None:
		return 1
	case kind == compress.LZ4:
		return lz4.MaxExpansion
	}
	return 1032
}

// CompressedSize returns the total stored byte size of the array.
func (a *ArrayInfo) CompressedSize() int64 {
	var n int64
	for _, c := range a.Chunks {
		n += int64(c.Comp)
	}
	return n
}

// RawSize returns the decompressed byte size of the array.
func (a *ArrayInfo) RawSize() int64 {
	var n int64
	for _, c := range a.Chunks {
		n += int64(c.Raw)
	}
	return n
}

// Header is the file's JSON metadata block.
type Header struct {
	Dims    [3]int      `json:"dims"`
	Origin  [3]float64  `json:"origin"`
	Spacing [3]float64  `json:"spacing"`
	Arrays  []ArrayInfo `json:"arrays"`
	// Checksums points at the optional trailing page-CRC section (see
	// checksum.go). Readers that predate it unmarshal the header without
	// this field and skip verification — the section sits after the last
	// array block, outside every extent they read.
	Checksums *ChecksumInfo `json:"checksums,omitempty"`
	// Ranges is the chunk range table (see ranges.go): every chunk's
	// value range and the table's CRC32C, base64 in the JSON. Readers
	// that predate it skip the field.
	Ranges []byte `json:"ranges,omitempty"`
}

// Grid reconstructs the grid described by the header.
func (h *Header) Grid() *grid.Uniform {
	return &grid.Uniform{
		Dims:    grid.Dims{X: h.Dims[0], Y: h.Dims[1], Z: h.Dims[2]},
		Origin:  grid.Vec3{X: h.Origin[0], Y: h.Origin[1], Z: h.Origin[2]},
		Spacing: grid.Vec3{X: h.Spacing[0], Y: h.Spacing[1], Z: h.Spacing[2]},
	}
}

// Array returns the info for the named array, or nil.
func (h *Header) Array(name string) *ArrayInfo {
	for i := range h.Arrays {
		if h.Arrays[i].Name == name {
			return &h.Arrays[i]
		}
	}
	return nil
}

// ArrayNames lists stored arrays in file order.
func (h *Header) ArrayNames() []string {
	out := make([]string, len(h.Arrays))
	for i := range h.Arrays {
		out[i] = h.Arrays[i].Name
	}
	return out
}

// FloatsToBytes serializes values as little-endian float32: one bulk
// copy of v's memory (see floatBytes).
func FloatsToBytes(v []float32) []byte {
	out := make([]byte, 4*len(v))
	copy(out, floatBytes(v))
	swapWords(out, hostBigEndian)
	return out
}

// FloatsAsBytes is v serialized as little-endian float32 without a copy:
// on a little-endian host it is v's own memory, so it aliases v and is
// only as immutable as v is. A big-endian host gets FloatsToBytes's copy.
func FloatsAsBytes(v []float32) []byte {
	if hostBigEndian {
		return FloatsToBytes(v)
	}
	return floatBytes(v)
}

// BytesToFloats deserializes little-endian float32 values, bit for bit.
func BytesToFloats(b []byte) ([]float32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("vtkio: %d bytes is not a whole number of float32", len(b))
	}
	out := make([]float32, len(b)/4)
	dst := floatBytes(out)
	copy(dst, b)
	swapWords(dst, hostBigEndian)
	return out, nil
}

// WriteOptions configures Write.
type WriteOptions struct {
	Codec     compress.Kind
	ChunkSize int // raw bytes per chunk; DefaultChunkSize if 0
	// LossyBound, when positive, stores arrays with the error-bounded
	// quantizing codec instead of Codec: every value is reproduced within
	// +/- LossyBound. Chunk sizes stay float32-aligned automatically.
	LossyBound float64
	// Checksum appends the page-CRC32C section and points the header at
	// it; readers then verify every array read (see checksum.go). It also
	// records the chunk range table (see ranges.go) unless LossyBound is
	// set.
	Checksum bool
	// ChecksumPageSize overrides DefaultChecksumPageSize when positive.
	ChecksumPageSize int
}

// Write serializes ds to w, compressing each array with the requested
// codec. Chunks are compressed in parallel across CPUs.
func Write(w io.Writer, ds *grid.Dataset, opts WriteOptions) error {
	if err := ds.Grid.Validate(); err != nil {
		return err
	}
	chunkSize := opts.ChunkSize
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	chunkSize &^= 3 // keep chunks float32-aligned for the lossy codec
	if chunkSize == 0 {
		chunkSize = 4
	}
	var codec compress.Codec
	codecName := opts.Codec.String()
	if opts.LossyBound > 0 {
		codec = compress.QuantizedLZ4(opts.LossyBound)
		codecName = LossyCodecName
	} else {
		var err error
		codec, err = compress.ByKind(opts.Codec)
		if err != nil {
			return err
		}
	}

	h := Header{
		Dims:    [3]int{ds.Grid.Dims.X, ds.Grid.Dims.Y, ds.Grid.Dims.Z},
		Origin:  [3]float64{ds.Grid.Origin.X, ds.Grid.Origin.Y, ds.Grid.Origin.Z},
		Spacing: [3]float64{ds.Grid.Spacing.X, ds.Grid.Spacing.Y, ds.Grid.Spacing.Z},
	}

	names := ds.FieldNames()
	blocks := make([]block, len(names))
	chunkVals := chunkSize / 4
	nchunks := 0
	for i, name := range names {
		vals := ds.Field(name).Values
		n := max(1, (len(vals)+chunkVals-1)/chunkVals) // an empty array still gets one (empty) chunk
		blocks[i] = block{
			info:   ArrayInfo{Name: name, Codec: codecName, Chunks: make([]ChunkInfo, n)},
			vals:   vals,
			chunks: make([][]byte, n),
			errs:   make([]error, n),
		}
		blocks[i].pending.Store(int64(n))
		if opts.LossyBound > 0 {
			blocks[i].info.LossyBound = opts.LossyBound
		}
		nchunks += n
	}
	if opts.Checksum && opts.LossyBound <= 0 {
		h.Ranges = make([]byte, rangeEntrySize*nchunks, rangeEntrySize*nchunks+4)
		off := 0
		for i := range blocks {
			n := len(blocks[i].chunks)
			blocks[i].ranges = h.Ranges[off : off+rangeEntrySize*n]
			off += rangeEntrySize * n
		}
	}
	pageSize := 0
	if opts.Checksum {
		pageSize = opts.ChecksumPageSize
		if pageSize <= 0 {
			pageSize = DefaultChecksumPageSize
		}
	}
	encodeBlocks(blocks, chunkVals, codec, pageSize)
	for i := range blocks {
		for _, err := range blocks[i].errs {
			if err != nil {
				return fmt.Errorf("vtkio: array %q: %w", names[i], err)
			}
		}
	}

	if h.Ranges != nil {
		h.Ranges = binary.LittleEndian.AppendUint32(h.Ranges, Checksum(h.Ranges))
	}

	// Page checksums over each array's stored bytes, in array order; the
	// table's file offset joins the layout iteration below.
	var crcs []uint32
	if opts.Checksum {
		for i := range blocks {
			crcs = append(crcs, blocks[i].crcs...)
		}
		h.Checksums = &ChecksumInfo{Algo: ChecksumAlgo, PageSize: pageSize, Pages: len(crcs)}
	}

	// Lay out offsets. The header length depends on the offsets, whose
	// digit count depends on the header length; iterate until stable.
	headerLen := 0
	for iter := 0; iter < 8; iter++ {
		off := int64(len(Magic) + 4 + headerLen)
		for i := range blocks {
			blocks[i].info.Offset = off
			off += blocks[i].info.CompressedSize()
		}
		if h.Checksums != nil {
			h.Checksums.Offset = off
		}
		h.Arrays = h.Arrays[:0]
		for i := range blocks {
			h.Arrays = append(h.Arrays, blocks[i].info)
		}
		enc, err := json.Marshal(&h)
		if err != nil {
			return fmt.Errorf("vtkio: header: %w", err)
		}
		if len(enc) == headerLen {
			break
		}
		headerLen = len(enc)
	}
	enc, err := json.Marshal(&h)
	if err != nil {
		return fmt.Errorf("vtkio: header: %w", err)
	}
	if len(enc) != headerLen {
		return fmt.Errorf("vtkio: header layout did not converge")
	}

	if _, err := io.WriteString(w, Magic); err != nil {
		return err
	}
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(headerLen))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	if _, err := w.Write(enc); err != nil {
		return err
	}
	for i := range blocks {
		for _, c := range blocks[i].chunks {
			if _, err := w.Write(c); err != nil {
				return err
			}
		}
	}
	if len(crcs) > 0 {
		table := make([]byte, 4*len(crcs))
		for i, crc := range crcs {
			binary.LittleEndian.PutUint32(table[i*4:], crc)
		}
		if _, err := w.Write(table); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile writes ds to a new file at path.
func WriteFile(path string, ds *grid.Dataset, opts WriteOptions) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, ds, opts); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

// block is one array on its way into a file.
type block struct {
	info   ArrayInfo
	vals   []float32
	chunks [][]byte // stored bytes, one per chunk
	errs   []error  // per chunk
	// ranges is the array's share of the header's chunk range table
	// (see ranges.go), nil when the file records none; crcs are its page
	// checksums, nil when the file carries none.
	ranges  []byte
	crcs    []uint32
	pending atomic.Int64 // chunks not yet compressed
}

// encodeBlocks compresses the chunks of every block on up to GOMAXPROCS
// workers. The worker that compresses a chunk also
// writes its range entry when the block records ranges, and the worker
// that finishes a block's last chunk takes the block's page checksums
// when pageSize is positive, so nothing walks the data on Write's serial
// path. Chunks read the values in place: on a little-endian host their
// memory is already the file's bytes.
func encodeBlocks(blocks []block, chunkVals int, codec compress.Codec, pageSize int) {
	type job struct{ block, chunk int }
	var jobs []job
	for b := range blocks {
		for c := range blocks[b].chunks {
			jobs = append(jobs, job{b, c})
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(jobs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := int(next.Add(1)) - 1; n < len(jobs); n = int(next.Add(1)) - 1 {
				b, c := &blocks[jobs[n].block], jobs[n].chunk
				lo := min(c*chunkVals, len(b.vals))
				piece := b.vals[lo:min(lo+chunkVals, len(b.vals))]
				if comp, err := codec.Compress(FloatsAsBytes(piece)); err != nil {
					b.errs[c] = err
				} else {
					b.chunks[c] = comp
					b.info.Chunks[c] = ChunkInfo{Comp: len(comp), Raw: 4 * len(piece)}
				}
				if b.ranges != nil {
					putRange(b.ranges[c*rangeEntrySize:], piece)
				}
				if b.pending.Add(-1) == 0 && pageSize > 0 {
					b.crcs = pageCRCs(b.chunks, pageSize)
				}
			}
		}()
	}
	wg.Wait()
}

// Meta is everything OpenReader learns from a file before it reads an
// array: the validated header (with its chunk index) and the page-CRC
// table. It is immutable once built, so one Meta may back any number of
// Readers over the same file version — which is how the NDP server
// avoids re-reading it per request (see NewReader).
type Meta struct {
	header Header
	// crcs is the checksum table and ckStart[i] array i's first entry in
	// it; both are unset when the file carries no checksum section.
	ckStart []int64
	crcs    []uint32
	size    int64
	// objSize is the object's byte length, -1 when its source reports
	// none.
	objSize int64
}

// Size is the metadata's approximate resident byte size: the header as
// stored plus the checksum table.
func (m *Meta) Size() int64 { return m.size }

// Reader provides selective access to a stored dataset.
type Reader struct {
	src  io.ReaderAt
	meta *Meta
}

// OpenReader parses the header from src and returns a reader. src must
// remain valid for the reader's lifetime.
func OpenReader(src io.ReaderAt) (*Reader, error) {
	m, err := ReadMeta(src)
	if err != nil {
		return nil, err
	}
	return NewReader(src, m), nil
}

// NewReader returns a reader over src using metadata already read from
// the same file version, without touching src. Pairing a Meta with any
// other bytes is the caller's error; the per-page CRCs and the codecs'
// size checks then fail the read.
func NewReader(src io.ReaderAt, m *Meta) *Reader { return &Reader{src: src, meta: m} }

// ReadMeta reads and validates a file's metadata in three small reads:
// the preamble, the JSON header and, when present, the checksum table.
// The header carries no checksum of its own, so every way its bytes can
// fail — short, unparseable, or disagreeing with themselves — is
// ErrCorrupt, like a page that fails its CRC.
func ReadMeta(src io.ReaderAt) (*Meta, error) {
	pre := make([]byte, len(Magic)+4)
	if _, err := readFullAt(src, pre, 0); err != nil {
		return nil, fmt.Errorf("vtkio: reading preamble: %w", err)
	}
	if string(pre[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, pre[:len(Magic)])
	}
	hlen := binary.BigEndian.Uint32(pre[len(Magic):])
	if hlen > maxHeaderSize {
		return nil, fmt.Errorf("%w: header of %d bytes exceeds limit", ErrCorrupt, hlen)
	}
	hbuf := make([]byte, hlen)
	if _, err := readFullAt(src, hbuf, int64(len(pre))); err != nil {
		return nil, fmt.Errorf("vtkio: reading header: %w", err)
	}
	m := &Meta{size: int64(hlen)}
	if err := json.Unmarshal(hbuf, &m.header); err != nil {
		return nil, fmt.Errorf("%w: parsing header: %w", ErrCorrupt, err)
	}
	if err := m.header.Grid().Validate(); err != nil {
		return nil, fmt.Errorf("%w: header grid: %w", ErrCorrupt, err)
	}
	// Validate array extents up front: readArray sizes buffers and slices
	// from these fields, so a header whose sizes are negative, claim more
	// raw bytes than the codec can decode from the stored ones, or add up
	// past any object must be rejected here rather than panic or exhaust
	// memory there. An extent that ends past this object fails the reads
	// of its array (arrayLen), so a cut-off object still serves the
	// arrays it holds whole.
	m.objSize = -1
	if size, ok := objectSize(src); ok {
		m.objSize = size
	}
	for i := range m.header.Arrays {
		a := &m.header.Arrays[i]
		if a.Offset < 0 {
			return nil, fmt.Errorf("%w: array %q has negative offset %d", ErrCorrupt, a.Name, a.Offset)
		}
		grow := a.maxExpansion()
		end := a.Offset
		for _, c := range a.Chunks {
			switch {
			case c.Comp < 0 || c.Raw < 0:
				return nil, fmt.Errorf("%w: array %q has negative chunk size (comp=%d raw=%d)",
					ErrCorrupt, a.Name, c.Comp, c.Raw)
			case grow > 0 && c.Comp <= math.MaxInt/grow && c.Raw > grow*c.Comp:
				return nil, fmt.Errorf("%w: array %q: %s chunk of %d bytes claims %d raw bytes",
					ErrCorrupt, a.Name, a.Codec, c.Comp, c.Raw)
			case int64(c.Comp) > math.MaxInt64-end:
				return nil, fmt.Errorf("%w: array %q ends past any object", ErrCorrupt, a.Name)
			}
			end += int64(c.Comp)
		}
	}
	if err := checkRanges(&m.header); err != nil {
		return nil, err
	}
	// Same discipline for the checksum section: its geometry is checked
	// and its table read here, once, so a section that falls outside the
	// file fails the open rather than the first verified read.
	if m.header.Checksums != nil {
		var err error
		if m.ckStart, m.crcs, err = readChecksums(src, &m.header); err != nil {
			return nil, err
		}
		m.size += 4 * int64(len(m.crcs))
	}
	return m, nil
}

// OpenFile opens path for selective reads. Close the returned closer when
// done.
func OpenFile(path string) (*Reader, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	r, err := OpenReader(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return r, f, nil
}

// readFullAt fills buf from src at off. A read that ends early at the
// end of the object is ErrCorrupt: the header promised bytes the store
// does not have. Any other failure (a transport error) passes through.
func readFullAt(src io.ReaderAt, buf []byte, off int64) (int, error) {
	n, err := src.ReadAt(buf, off)
	if n == len(buf) {
		return n, nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if errors.Is(err, io.ErrUnexpectedEOF) {
		err = fmt.Errorf("%w: %d of %d bytes at offset %d: %w", ErrCorrupt, n, len(buf), off, err)
	}
	return n, err
}

// objectSize is src's length when src reports one: a bytes.Reader's
// Size, or a file's Stat (free on s3fs, whose open already asked the
// store).
func objectSize(src io.ReaderAt) (int64, bool) {
	switch s := src.(type) {
	case interface{ Size() int64 }:
		return s.Size(), true
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil {
			return fi.Size(), true
		}
	}
	return 0, false
}

// Header returns the parsed file header. It is shared with every reader
// built on the same Meta and must not be modified.
func (r *Reader) Header() *Header { return &r.meta.header }

// Grid returns the stored grid definition.
func (r *Reader) Grid() *grid.Uniform { return r.meta.header.Grid() }

// arrayIndex finds the named array's position in the header.
func (r *Reader) arrayIndex(name string) (int, error) {
	for i := range r.meta.header.Arrays {
		if r.meta.header.Arrays[i].Name == name {
			return i, nil
		}
	}
	return -1, fmt.Errorf("vtkio: no array %q (have %v)", name, r.meta.header.ArrayNames())
}

// extentPool recycles the buffers that hold a stored span for one
// readArray or VerifyChecksums call; nothing a caller keeps points into
// one, since decoders write to the caller's destination.
var extentPool sync.Pool // of *[]byte

// pooled is a readSpan buffer from extentPool; release hands it back.
type pooled struct{ p *[]byte }

func (e *pooled) alloc(lo, hi int64) []byte {
	if e.p, _ = extentPool.Get().(*[]byte); e.p == nil || int64(cap(*e.p)) < hi-lo {
		b := make([]byte, hi-lo)
		e.p = &b
	}
	*e.p = (*e.p)[:hi-lo]
	return *e.p
}

func (e *pooled) release() {
	if e.p != nil {
		extentPool.Put(e.p)
	}
}

// readSpan is the one read of an array's stored bytes. It turns want, a
// mask over array idx's chunks (nil meaning all), into the span [lo, hi)
// of the extent from the first wanted chunk to the end of the last,
// widened to whole checksum pages when the file carries them, reads it
// with one ReadAt into alloc's buffer and verifies every page before any
// codec sees a byte, so a CRC mismatch is ErrChecksum, never a codec
// failure or wrong floats. It returns lo and the span.
func (r *Reader) readSpan(idx int, want []bool, alloc func(lo, hi int64) []byte) (int64, []byte, error) {
	info := &r.meta.header.Arrays[idx]
	lo, hi := int64(-1), int64(0)
	var coff int64
	for i, c := range info.Chunks {
		if want == nil || want[i] {
			if lo < 0 {
				lo = coff
			}
			hi = coff + int64(c.Comp)
		}
		coff += int64(c.Comp)
	}
	if lo < 0 {
		return 0, nil, nil
	}
	ck := r.meta.header.Checksums
	if ck != nil {
		page := int64(ck.PageSize)
		lo -= lo % page
		hi = min(pageCount(hi, ck.PageSize)*page, coff)
	}
	buf := alloc(lo, hi)
	if len(buf) == 0 {
		return lo, buf, nil
	}
	if _, err := readFullAt(r.src, buf, info.Offset+lo); err != nil {
		return 0, nil, fmt.Errorf("vtkio: reading array %q: %w", info.Name, err)
	}
	if ck == nil {
		return lo, buf, nil
	}
	return lo, buf, r.meta.verifyPages(idx, lo, buf)
}

// readArray is the one array-decode routine: it lands the values of
// array idx's wanted chunks (want; nil means all) in dst, RawSize() long,
// in host byte order, and leaves the rest of dst as it was. A raw span is
// the array's bytes (arrayLen holds each chunk to Comp == Raw), so it
// lands in dst directly, unwanted chunks inside it included; any other
// span goes to a pooled buffer and its wanted chunks decode into dst.
func (r *Reader) readArray(idx int, dst []byte, want []bool) error {
	info := &r.meta.header.Arrays[idx]
	if want != nil && len(want) != len(info.Chunks) {
		return fmt.Errorf("vtkio: array %q: chunk mask of %d for %d chunks", info.Name, len(want), len(info.Chunks))
	}
	codec, err := info.codec()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	if codec.Kind() == compress.None {
		_, span, err := r.readSpan(idx, want, func(lo, hi int64) []byte { return dst[lo:hi] })
		swapWords(span, hostBigEndian)
		return err
	}
	var ext pooled
	defer ext.release()
	lo, span, err := r.readSpan(idx, want, ext.alloc)
	if err != nil {
		return err
	}
	// The header that frames the chunks carries no checksum: a chunk
	// size that lies before a partial span shifts every chunk in it onto
	// bytes whose pages verify, and only the decode can tell.
	if err := decodeChunks(codec, info.Chunks, want, span, lo, dst); err != nil {
		return fmt.Errorf("%w: array %q %w", ErrCorrupt, info.Name, err)
	}
	return nil
}

// decodeJob is one chunk for decodeAll: its index and raw size, its
// stored bytes, its slot of the destination, and what the pass returned.
type decodeJob struct {
	chunk, raw int
	comp, out  []byte
	err        error
}

// decodeChunks is the one walk from stored chunks to decode jobs: each
// chunk that want marks (nil meaning all), its stored bytes in span (the
// extent from offset lo), decodes with codec into its slot of dst — or,
// with a nil codec and dst, is only checked to decode as LZ4 — and the
// error returned is the first wanted chunk's that failed, in order.
func decodeChunks(codec compress.Codec, chunks []ChunkInfo, want []bool, span []byte, lo int64, dst []byte) error {
	wanted := len(chunks)
	for _, w := range want {
		if !w {
			wanted--
		}
	}
	jobs := make([]decodeJob, 0, wanted)
	var coff, roff int64
	for i, c := range chunks {
		if want == nil || want[i] {
			j := decodeJob{chunk: i, raw: c.Raw, comp: span[coff-lo : coff-lo+int64(c.Comp)]}
			if dst != nil {
				j.out = dst[roff : roff+int64(c.Raw)]
			}
			jobs = append(jobs, j)
		}
		coff += int64(c.Comp)
		roff += int64(c.Raw)
	}
	decodeAll(codec, jobs)
	for _, j := range jobs {
		if j.err != nil {
			return fmt.Errorf("chunk %d: %w", j.chunk, j.err)
		}
	}
	return nil
}

// decodeAll decodes every job, into host byte order, on at most
// GOMAXPROCS goroutines, the calling one among them, each pulling the
// next job until none is left, and returns once all have run; a nil
// codec only checks each job with lz4.Validate. How many goroutines it
// starts depends on the CPU count, never on the job count.
func decodeAll(codec compress.Codec, jobs []decodeJob) {
	var next atomic.Int64
	work := func() {
		for j := next.Add(1) - 1; j < int64(len(jobs)); j = next.Add(1) - 1 {
			job := &jobs[j]
			if codec == nil {
				job.err = lz4.Validate(job.comp, job.raw)
			} else if job.err = codec.DecompressInto(job.out, job.comp); job.err == nil {
				swapWords(job.out, hostBigEndian)
			}
		}
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(jobs)) - 1; w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// ReadStored returns the named LZ4 array's stored extent in a new buffer
// the caller owns: what a reader that decodes elsewhere needs besides the
// chunk table (PackChunks). It hands out only bytes readArray would have
// decoded: the header must agree with itself (arrayLen), every page pass
// its CRC (readSpan) and every chunk fit its raw size (lz4.Validate), or
// it is ErrCorrupt.
func (r *Reader) ReadStored(name string) ([]byte, error) {
	idx, _, err := r.arrayLen(name)
	if err != nil {
		return nil, err
	}
	info := &r.meta.header.Arrays[idx]
	if info.Codec != compress.LZ4.String() {
		return nil, fmt.Errorf("vtkio: array %q is stored %s, not lz4", name, info.Codec)
	}
	_, ext, err := r.readSpan(idx, nil, func(lo, hi int64) []byte { return make([]byte, hi-lo) })
	if err != nil {
		return nil, err
	}
	if err := decodeChunks(nil, info.Chunks, nil, ext, 0, nil); err != nil {
		return nil, fmt.Errorf("%w: array %q %w", ErrCorrupt, name, err)
	}
	return ext, nil
}

// PackChunks packs a chunk table for a stored reply: each chunk's stored
// and raw sizes as two uvarints, in order. UnpackChunks is its parser.
func PackChunks(chunks []ChunkInfo) []byte {
	b := make([]byte, 0, 2*binary.MaxVarintLen32*len(chunks))
	for _, c := range chunks {
		b = binary.AppendUvarint(b, uint64(c.Comp))
		b = binary.AppendUvarint(b, uint64(c.Raw))
	}
	return b
}

// UnpackChunks parses a received chunk table for an extent of the given
// length and returns it with the array's raw byte size. A table that does
// not parse or cover the extent exactly, promises a chunk more than
// lz4.MaxExpansion times its stored size, or adds up to no whole number
// of float32 is ErrCorrupt, before anything the array's size is allocated.
func UnpackChunks(table []byte, extent int) ([]ChunkInfo, int, error) {
	var chunks []ChunkInfo
	comp, raw := 0, 0
	for len(table) > 0 {
		c, n := binary.Uvarint(table)
		r, m := binary.Uvarint(table[max(n, 0):])
		if n <= 0 || m <= 0 || c > math.MaxInt32 || r > math.MaxInt32 ||
			int(c) > extent-comp || int(r) > lz4.MaxExpansion*int(c) {
			return nil, 0, fmt.Errorf("%w: stored chunk table is malformed at chunk %d", ErrCorrupt, len(chunks))
		}
		chunks = append(chunks, ChunkInfo{Comp: int(c), Raw: int(r)})
		comp += int(c)
		raw += int(r)
		table = table[n+m:]
	}
	if comp != extent || raw%4 != 0 {
		return nil, 0, fmt.Errorf("%w: stored chunk table covers %d of %d bytes and %d raw bytes", ErrCorrupt, comp, extent, raw)
	}
	return chunks, raw, nil
}

// lz4Codec decodes a stored reply's chunks; ByKind fails only for an
// unknown kind.
var lz4Codec, _ = compress.ByKind(compress.LZ4)

// DecodeStored decodes a received stored extent and its packed chunk
// table into a new array. UnpackChunks proves that the table covers the
// extent and sizes the array, so what is left is the decode. Every
// failure is ErrCorrupt.
func DecodeStored(extent, table []byte) ([]float32, error) {
	chunks, raw, err := UnpackChunks(table, len(extent))
	if err != nil {
		return nil, err
	}
	vals := make([]float32, raw/4)
	if err := decodeChunks(lz4Codec, chunks, nil, extent, 0, floatBytes(vals)); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return vals, nil
}

// ReadArray fetches the named array as a field. The []float32 it returns
// is the call's one array-sized allocation: the stored bytes are decoded
// directly into it. The header's claims are checked against the grid
// first, so a header that disagrees with itself costs no read.
func (r *Reader) ReadArray(name string) (*grid.Field, error) {
	idx, n, err := r.arrayLen(name)
	if err != nil {
		return nil, err
	}
	vals := make([]float32, n)
	if err := r.readArray(idx, floatBytes(vals), nil); err != nil {
		return nil, err
	}
	return &grid.Field{Name: name, Values: vals}, nil
}

// arrayLen finds the named array and its value count, once its header
// entry is checked against the grid, whose point count its raw sizes must
// add up to, and against the object, inside which its extent must end
// when the source reports its size; a raw array's chunks must also store
// exactly their raw bytes. A header that disagrees with itself or with
// the object is ErrCorrupt, found before anything the array's size is
// allocated.
func (r *Reader) arrayLen(name string) (idx, n int, err error) {
	if idx, err = r.arrayIndex(name); err != nil {
		return 0, 0, err
	}
	info := &r.meta.header.Arrays[idx]
	raw := info.maxExpansion() == 1
	var comp, size int64
	for _, c := range info.Chunks {
		if raw && c.Comp != c.Raw {
			return 0, 0, fmt.Errorf("%w: array %q: raw chunk stores %d bytes for %d", ErrCorrupt, name, c.Comp, c.Raw)
		}
		comp += int64(c.Comp)
		size += int64(c.Raw)
	}
	if r.meta.objSize >= 0 && comp > r.meta.objSize-info.Offset {
		return 0, 0, fmt.Errorf("%w: array %q runs past the object's %d bytes", ErrCorrupt, name, r.meta.objSize)
	}
	if size%4 != 0 {
		return 0, 0, fmt.Errorf("%w: %d bytes is not a whole number of float32", ErrCorrupt, size)
	}
	if want := r.Grid().NumPoints(); size/4 != int64(want) {
		return 0, 0, fmt.Errorf("%w: array %q has %d values, grid has %d points", ErrCorrupt, name, size/4, want)
	}
	return idx, int(size / 4), nil
}

// ReadArrayChunksInto reads and decodes the chunks want marks (one flag
// per chunk of the array's header entry; nil means all) into dst, which
// must hold exactly the array's values, one per grid point. Only the
// wanted chunks' values are written (in a raw array, also those between two
// wanted chunks); the rest of dst keeps whatever it held, so a caller
// that recycles dst must read nothing outside the chunks it asked for.
func (r *Reader) ReadArrayChunksInto(name string, want []bool, dst []float32) error {
	idx, n, err := r.arrayLen(name)
	if err != nil {
		return err
	}
	if len(dst) != n {
		return fmt.Errorf("vtkio: array %q: destination of %d values for %d", name, len(dst), n)
	}
	return r.readArray(idx, floatBytes(dst), want)
}

// ReadDataset fetches the named arrays (or all arrays when names is
// empty) into a dataset.
func (r *Reader) ReadDataset(names ...string) (*grid.Dataset, error) {
	if len(names) == 0 {
		names = r.meta.header.ArrayNames()
	}
	ds := grid.NewDataset(r.Grid())
	for _, n := range names {
		f, err := r.ReadArray(n)
		if err != nil {
			return nil, err
		}
		if err := ds.AddField(f); err != nil {
			return nil, err
		}
	}
	return ds, nil
}
