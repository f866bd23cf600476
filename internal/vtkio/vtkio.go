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
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"vizndp/internal/compress"
	"vizndp/internal/grid"
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

	type block struct {
		info   ArrayInfo
		chunks [][]byte
	}
	blocks := make([]block, 0, ds.NumFields())
	for _, name := range ds.FieldNames() {
		vals := ds.Field(name).Values
		if opts.Checksum && opts.LossyBound <= 0 {
			h.Ranges = appendRanges(h.Ranges, vals, chunkSize/4)
		}
		raw := FloatsToBytes(vals)
		chunks, infos, err := compressChunks(raw, chunkSize, codec)
		if err != nil {
			return fmt.Errorf("vtkio: array %q: %w", name, err)
		}
		info := ArrayInfo{Name: name, Codec: codecName, Chunks: infos}
		if opts.LossyBound > 0 {
			info.LossyBound = opts.LossyBound
		}
		blocks = append(blocks, block{info: info, chunks: chunks})
	}

	if h.Ranges != nil {
		h.Ranges = binary.LittleEndian.AppendUint32(h.Ranges, Checksum(h.Ranges))
	}

	// Page checksums over each array's stored bytes, in array order; the
	// table's file offset joins the layout iteration below.
	var crcs []uint32
	if opts.Checksum {
		pageSize := opts.ChecksumPageSize
		if pageSize <= 0 {
			pageSize = DefaultChecksumPageSize
		}
		for i := range blocks {
			crcs = append(crcs, pageCRCs(blocks[i].chunks, pageSize)...)
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

// compressChunks splits raw into chunkSize pieces and compresses them in
// parallel.
func compressChunks(raw []byte, chunkSize int, codec compress.Codec) ([][]byte, []ChunkInfo, error) {
	n := (len(raw) + chunkSize - 1) / chunkSize
	if n == 0 {
		n = 1 // an empty array still gets one (empty) chunk
	}
	chunks := make([][]byte, n)
	infos := make([]ChunkInfo, n)
	errs := make([]error, n)

	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := 0; i < n; i++ {
		lo := i * chunkSize
		hi := lo + chunkSize
		if hi > len(raw) {
			hi = len(raw)
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, piece []byte) {
			defer wg.Done()
			defer func() { <-sem }()
			comp, err := codec.Compress(piece)
			if err != nil {
				errs[i] = err
				return
			}
			chunks[i] = comp
			infos[i] = ChunkInfo{Comp: len(comp), Raw: len(piece)}
		}(i, raw[lo:hi])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return chunks, infos, nil
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
	// from these fields, so a corrupt header with negative values must be
	// rejected here rather than panic there.
	for i := range m.header.Arrays {
		a := &m.header.Arrays[i]
		if a.Offset < 0 {
			return nil, fmt.Errorf("%w: array %q has negative offset %d", ErrCorrupt, a.Name, a.Offset)
		}
		for _, c := range a.Chunks {
			if c.Comp < 0 || c.Raw < 0 {
				return nil, fmt.Errorf("%w: array %q has negative chunk size (comp=%d raw=%d)",
					ErrCorrupt, a.Name, c.Comp, c.Raw)
			}
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

// extentPool recycles the buffers that hold an array's stored extent for
// the length of one readArray or VerifyChecksums call. Nothing a caller
// keeps ever points into one: decoders write to the caller's destination
// and the buffer goes back before the call returns.
var extentPool sync.Pool // of *[]byte

// getExtent returns a pooled buffer of n bytes; hand it to putExtent.
func getExtent(n int64) *[]byte {
	if p, _ := extentPool.Get().(*[]byte); p != nil && int64(cap(*p)) >= n {
		*p = (*p)[:n]
		return p
	}
	b := make([]byte, n)
	return &b
}

func putExtent(p *[]byte) { extentPool.Put(p) }

// readSpan fills buf with the stored bytes of array idx from offset lo
// of its extent — one sequential read — and checks them against the
// page CRCs when the file carries them, in which case lo must be
// page-aligned and buf run to a page boundary or the extent's end.
// Verification always runs here,
// on the stored bytes and before any codec sees them: a CRC mismatch is
// reported as ErrChecksum, never as a codec failure — and never as
// silently-wrong floats when the corrupt bytes still decompress (the
// "none" codec decompresses everything).
func (r *Reader) readSpan(idx int, lo int64, buf []byte) error {
	info := &r.meta.header.Arrays[idx]
	if len(buf) == 0 {
		return nil
	}
	if _, err := readFullAt(r.src, buf, info.Offset+lo); err != nil {
		return fmt.Errorf("vtkio: reading array %q: %w", info.Name, err)
	}
	if r.meta.header.Checksums == nil {
		return nil
	}
	return r.meta.verifyPages(idx, lo, buf)
}

// readArray is the one array-decode routine: it lands the values of
// array idx's wanted chunks in dst, in host byte order, which must be
// RawSize() long, allocating nothing of the array's size. want marks
// the chunks to decode, nil meaning all. It reads one span of the stored
// extent, from the first wanted chunk to the last, widened to whole
// checksum pages and verified page by page (readSpan). The "raw" codec's
// stored bytes are the array, so its span is read straight into dst,
// unwanted chunks inside it included; every other codec's span is read
// into a pooled buffer and the wanted chunks decompress on a fixed set
// of at most GOMAXPROCS workers, each chunk into its own slot of dst.
// The rest of dst is left as it was.
func (r *Reader) readArray(idx int, dst []byte, want []bool) error {
	info := &r.meta.header.Arrays[idx]
	if want != nil && len(want) != len(info.Chunks) {
		return fmt.Errorf("vtkio: array %q: chunk mask of %d for %d chunks", info.Name, len(want), len(info.Chunks))
	}
	codec, err := info.codec()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	raw := codec.Kind() == compress.None
	// The span: stored bytes [lo, hi) of the extent, from the first
	// wanted chunk to the end of the last.
	lo, hi := int64(-1), int64(0)
	var coff int64
	wanted := 0
	for i, c := range info.Chunks {
		if raw && c.Comp != c.Raw {
			return fmt.Errorf("%w: array %q: raw chunk stores %d bytes for %d", ErrCorrupt, info.Name, c.Comp, c.Raw)
		}
		if want == nil || want[i] {
			if lo < 0 {
				lo = coff
			}
			hi = coff + int64(c.Comp)
			wanted++
		}
		coff += int64(c.Comp)
	}
	if lo < 0 {
		return nil // no chunk wanted
	}
	if ck := r.meta.header.Checksums; ck != nil {
		page := int64(ck.PageSize)
		lo -= lo % page
		hi = min(pageCount(hi, ck.PageSize)*page, coff)
	}
	if raw {
		if err := r.readSpan(idx, lo, dst[lo:hi]); err != nil {
			return err
		}
		swapWords(dst[lo:hi], hostBigEndian)
		return nil
	}
	ext := getExtent(hi - lo)
	defer putExtent(ext)
	if err := r.readSpan(idx, lo, *ext); err != nil {
		return err
	}

	// One job per wanted chunk, in chunk order, so the error reported is
	// the first wanted chunk's that failed whichever worker met it.
	jobs := make([]decodeJob, 0, wanted)
	var roff int
	coff = -lo // the chunk's offset in ext
	for i, c := range info.Chunks {
		comp, out := coff, roff
		coff += int64(c.Comp)
		roff += c.Raw
		if want == nil || want[i] {
			jobs = append(jobs, decodeJob{comp: (*ext)[comp:coff], out: dst[out:roff]})
		}
	}
	decodeAll(codec, jobs)
	for i := range jobs {
		// The header that frames the chunks carries no checksum: a chunk
		// size that lies before a partial span shifts every chunk in it
		// onto bytes whose pages verify, and only the decode can tell.
		if err := jobs[i].err; err != nil {
			return fmt.Errorf("%w: array %q: %w", ErrCorrupt, info.Name, err)
		}
	}
	return nil
}

// decodeJob is one chunk for decodeAll: its stored bytes, its slot of the
// destination, and what decompressing one into the other returned.
type decodeJob struct {
	comp, out []byte
	err       error
}

// decodeAll decodes every job, into host byte order, on at most
// GOMAXPROCS goroutines, the calling one among them, each pulling the
// next job until none is left, and returns once all have run. How many
// goroutines it starts depends on the CPU count, never on the job count.
func decodeAll(codec compress.Codec, jobs []decodeJob) {
	var next atomic.Int64
	work := func() {
		for j := next.Add(1) - 1; j < int64(len(jobs)); j = next.Add(1) - 1 {
			if jobs[j].err = codec.DecompressInto(jobs[j].out, jobs[j].comp); jobs[j].err == nil {
				swapWords(jobs[j].out, hostBigEndian)
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

// ReadArray fetches the named array as a field. The []float32 it returns
// is the call's one array-sized allocation: the stored bytes are decoded
// directly into it. The header's claims are checked against the grid
// first, so a header that disagrees with itself costs no read.
func (r *Reader) ReadArray(name string) (*grid.Field, error) {
	return r.ReadArrayChunks(name, nil)
}

// ReadArrayChunks is ReadArray for the chunks want marks (one flag per
// chunk of the array's header entry; nil means all): it reads and
// decodes only those into a new array, where the values of the others
// are zero — unless, in a raw array, they lie between two wanted chunks
// and come with the span.
func (r *Reader) ReadArrayChunks(name string, want []bool) (*grid.Field, error) {
	idx, err := r.arrayIndex(name)
	if err != nil {
		return nil, err
	}
	n, err := r.arrayLen(idx)
	if err != nil {
		return nil, err
	}
	vals := make([]float32, n)
	if err := r.readArray(idx, floatBytes(vals), want); err != nil {
		return nil, err
	}
	return &grid.Field{Name: name, Values: vals}, nil
}

// arrayLen is array idx's value count, once its header entry is checked
// against the grid, whose point count it must equal; a header that
// disagrees with itself is ErrCorrupt.
func (r *Reader) arrayLen(idx int) (int, error) {
	info := &r.meta.header.Arrays[idx]
	size := info.RawSize()
	if size%4 != 0 {
		return 0, fmt.Errorf("%w: %d bytes is not a whole number of float32", ErrCorrupt, size)
	}
	if want := r.Grid().NumPoints(); size/4 != int64(want) {
		return 0, fmt.Errorf("%w: array %q has %d values, grid has %d points",
			ErrCorrupt, info.Name, size/4, want)
	}
	return int(size / 4), nil
}

// ReadArrayChunksInto is ReadArrayChunks into dst, which must hold
// exactly the array's values, one per grid point. Only the wanted
// chunks' values are written (in a raw array, also those between two
// wanted chunks); the rest of dst keeps whatever it held, so a caller
// that recycles dst must read nothing outside the chunks it asked for.
func (r *Reader) ReadArrayChunksInto(name string, want []bool, dst []float32) error {
	idx, err := r.arrayIndex(name)
	if err != nil {
		return err
	}
	n, err := r.arrayLen(idx)
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
