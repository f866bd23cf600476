package vtkio

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"testing"

	"vizndp/internal/compress"
	"vizndp/internal/grid"
)

// rangesDataset is a 4x4x4 field whose 16-value chunks (ChunkSize 64)
// hold NaN beside values, ±Inf, nothing but NaN, and one constant.
func rangesDataset() *grid.Dataset {
	g := grid.NewUniform(4, 4, 4)
	f := grid.NewField("v02", g.NumPoints())
	nan := float32(math.NaN())
	for i := range f.Values {
		f.Values[i] = float32(i%7) * 0.25
	}
	f.Values[3], f.Values[9] = nan, float32(math.Inf(-1)) // chunk 0
	for i := 16; i < 32; i++ {
		f.Values[i] = nan // chunk 1
	}
	for i := 32; i < 48; i++ {
		f.Values[i] = 0.5 // chunk 2
	}
	f.Values[50] = float32(math.Inf(1)) // chunk 3
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	return ds
}

func TestChunkRangesRecordEachChunk(t *testing.T) {
	ds := rangesDataset()
	vals := ds.Field("v02").Values
	for _, kind := range []compress.Kind{compress.None, compress.LZ4} {
		var buf bytes.Buffer
		if err := Write(&buf, ds, WriteOptions{Codec: kind, ChunkSize: 64, Checksum: true}); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ChunkRanges("v02", nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 {
			t.Fatalf("%v: %d chunk ranges, want 4", kind, len(got))
		}
		for c, cr := range got {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range vals[16*c : 16*c+16] {
				if !math.IsNaN(float64(v)) {
					lo, hi = math.Min(lo, float64(v)), math.Max(hi, float64(v))
				}
			}
			want := ChunkRange{Start: 16 * c, End: 16*c + 16, Lo: float32(lo), Hi: float32(hi)}
			if cr != want {
				t.Errorf("%v chunk %d: %+v, want %+v", kind, c, cr, want)
			}
		}
	}

	// A lossy file records no table, nor does a file without checksums,
	// nor one written before the table existed; none is an error.
	for _, opts := range []WriteOptions{{LossyBound: 0.01, ChunkSize: 64, Checksum: true}, {Codec: compress.LZ4}} {
		var buf bytes.Buffer
		if err := Write(&buf, ds, opts); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := r.ChunkRanges("v02", nil); got != nil || err != nil || r.Header().Ranges != nil {
			t.Errorf("%+v: ranges %v, %v; want none", opts, got, err)
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, ds, WriteOptions{Codec: compress.LZ4, ChunkSize: 64, Checksum: true}); err != nil {
		t.Fatal(err)
	}
	old := rewriteHeader(t, buf.Bytes(), func(h *Header) { h.Ranges = nil })
	r, err := OpenReader(bytes.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := r.ChunkRanges("v02", nil); got != nil || err != nil {
		t.Errorf("file without a table: ranges %v, %v; want none", got, err)
	}
	if f, err := r.ReadArray("v02"); err != nil || !sameFloatBits(f.Values, vals) {
		t.Errorf("file without a table does not read back: %v", err)
	}
	if _, err := r.ChunkRanges("nope", nil); err == nil {
		t.Error("ChunkRanges of a missing array succeeded")
	}
}

// rewriteHeader returns file with its header re-encoded after edit and,
// when that shortened it, padded with spaces to its old length, so every
// offset after it still holds.
func rewriteHeader(t *testing.T, file []byte, edit func(*Header)) []byte {
	t.Helper()
	hlen := int(binary.BigEndian.Uint32(file[len(Magic):]))
	var h Header
	if err := json.Unmarshal(file[len(Magic)+4:len(Magic)+4+hlen], &h); err != nil {
		t.Fatal(err)
	}
	edit(&h)
	enc, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	for len(enc) < hlen {
		enc = append(enc, ' ')
	}
	out := binary.BigEndian.AppendUint32([]byte(Magic), uint32(len(enc)))
	return append(append(out, enc...), file[len(Magic)+4+hlen:]...)
}

// TestChecksumRangeTableFlipFailsOpen: a range table that lies about one
// bound, or is cut short, fails the metadata read with ErrChecksum: it
// must never skip a chunk a query needs.
func TestChecksumRangeTableFlipFailsOpen(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, rangesDataset(), WriteOptions{Codec: compress.LZ4, ChunkSize: 64, Checksum: true}); err != nil {
		t.Fatal(err)
	}
	for _, edit := range []func(*Header){
		func(h *Header) { h.Ranges[5] ^= 0x01 },            // chunk 0's hi
		func(h *Header) { h.Ranges[len(h.Ranges)-1] ^= 1 }, // the CRC
		func(h *Header) { h.Ranges = h.Ranges[8:] },        // one entry short
	} {
		if _, err := OpenReader(bytes.NewReader(rewriteHeader(t, buf.Bytes(), edit))); !errors.Is(err, ErrChecksum) {
			t.Errorf("mangled range table opened with %v, want ErrChecksum", err)
		}
	}
}

// TestRangeTableKeepsHeaderLength: the table's encoded length depends on
// the chunk count alone, so two files of one shape and different values
// have headers of one length (the same-size overwrite tests rely on it).
func TestRangeTableKeepsHeaderLength(t *testing.T) {
	a, b := rangesDataset(), rangesDataset()
	for i := range b.Field("v02").Values {
		b.Field("v02").Values[i] = -123456.789
	}
	var ba, bb bytes.Buffer
	for _, w := range []struct {
		ds  *grid.Dataset
		buf *bytes.Buffer
	}{{a, &ba}, {b, &bb}} {
		if err := Write(w.buf, w.ds, WriteOptions{Codec: compress.None, ChunkSize: 64, Checksum: true}); err != nil {
			t.Fatal(err)
		}
	}
	if ha, hb := binary.BigEndian.Uint32(ba.Bytes()[4:]), binary.BigEndian.Uint32(bb.Bytes()[4:]); ha != hb {
		t.Errorf("header lengths %d and %d for one shape", ha, hb)
	}
}

// chunkedFile is a 16x16x16 field in 1 KiB chunks (16 chunks of 256
// values), LZ4 or raw, with 256-byte checksum pages.
func chunkedFile(t *testing.T, kind compress.Kind) ([]byte, []float32) {
	t.Helper()
	g := grid.NewUniform(16, 16, 16)
	f := grid.NewField("v02", g.NumPoints())
	for i := range f.Values {
		f.Values[i] = float32(math.Sin(float64(i) * 0.01))
	}
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	return writeChecksummed(t, ds, WriteOptions{Codec: kind, ChunkSize: 1024, ChecksumPageSize: 256}), f.Values
}

// TestReadArrayChunksReadsOneSpan: a masked read makes one read, from
// the page holding the first wanted chunk's first byte to the page
// holding the last one's last, decodes the wanted chunks as ReadArray
// does and leaves a compressed array's other chunks zero.
func TestReadArrayChunksReadsOneSpan(t *testing.T) {
	for _, kind := range []compress.Kind{compress.LZ4, compress.None} {
		file, vals := chunkedFile(t, kind)
		tracked := &trackingReaderAt{data: file}
		r, err := OpenReader(tracked)
		if err != nil {
			t.Fatal(err)
		}
		info := r.Header().Array("v02")
		want := make([]bool, len(info.Chunks))
		want[3], want[9] = true, true
		tracked.reset()
		f, err := r.ReadArrayChunks("v02", want)
		if err != nil {
			t.Fatal(err)
		}
		var starts []int64
		var off int64
		for _, c := range info.Chunks {
			starts = append(starts, off)
			off += int64(c.Comp)
		}
		lo := starts[3] - starts[3]%256
		hi := min((starts[9]+int64(info.Chunks[9].Comp)+255)/256*256, off)
		if len(tracked.ranges) != 1 || tracked.ranges[0] != (readRange{info.Offset + lo, hi - lo}) {
			t.Errorf("%v: reads %v, want one of [%d, +%d)", kind, tracked.ranges, info.Offset+lo, hi-lo)
		}
		for c := range info.Chunks {
			got, ref := f.Values[256*c:256*c+256], vals[256*c:256*c+256]
			switch {
			case want[c] || (kind == compress.None && c > 3 && c < 9):
				if !sameFloatBits(got, ref) {
					t.Errorf("%v: chunk %d differs from the array", kind, c)
				}
			default:
				if !sameFloatBits(got, make([]float32, 256)) {
					t.Errorf("%v: unread chunk %d is not zero", kind, c)
				}
			}
		}

		// No chunk wanted: nothing is read.
		tracked.reset()
		if _, err := r.ReadArrayChunks("v02", make([]bool, len(info.Chunks))); err != nil || len(tracked.ranges) != 0 {
			t.Errorf("%v: empty mask read %v, %v", kind, tracked.ranges, err)
		}
		if _, err := r.ReadArrayChunks("v02", want[1:]); err == nil {
			t.Errorf("%v: a mask of the wrong length was accepted", kind)
		}
	}
}

// TestReadArrayChunksCorruptPages: a flipped bit inside a wanted chunk's
// pages fails the masked read with ErrChecksum; one in a page only
// skipped chunks use does not fail it, and VerifyChecksums still finds it.
func TestReadArrayChunksCorruptPages(t *testing.T) {
	file, vals := chunkedFile(t, compress.LZ4)
	r, err := OpenReader(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	info := r.Header().Array("v02")
	var starts []int64
	var off int64
	for _, c := range info.Chunks {
		starts = append(starts, off)
		off += int64(c.Comp)
	}
	want := make([]bool, len(info.Chunks))
	want[8] = true
	// A byte of chunk 8 itself, and the first byte of chunk 2, whose
	// pages chunk 8 shares none of.
	for _, tc := range []struct {
		at      int64
		corrupt bool
	}{{starts[8] + int64(info.Chunks[8].Comp)/2, true}, {starts[2], false}} {
		bad := append([]byte(nil), file...)
		bad[info.Offset+tc.at] ^= 0x20
		r2, err := OpenReader(bytes.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		f, err := r2.ReadArrayChunks("v02", want)
		if tc.corrupt {
			if !errors.Is(err, ErrChecksum) {
				t.Errorf("flip in the wanted chunk: %v, want ErrChecksum", err)
			}
		} else if err != nil || !sameFloatBits(f.Values[256*8:256*9], vals[256*8:256*9]) {
			t.Errorf("flip in a skipped chunk failed the masked read: %v", err)
		}
		if err := r2.VerifyChecksums(); !errors.Is(err, ErrChecksum) {
			t.Errorf("VerifyChecksums missed the flip at %d: %v", tc.at, err)
		}
	}
}
