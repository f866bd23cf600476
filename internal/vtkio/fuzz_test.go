package vtkio

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"testing"

	"vizndp/internal/compress"
	"vizndp/internal/grid"
)

// maxFuzzRawSize caps how much decompressed data one fuzz iteration may
// materialize; a hostile header advertising terabytes is rejected by
// the cap, not by allocating.
const maxFuzzRawSize = 1 << 20

// FuzzOpenReader feeds arbitrary bytes to the file parser. OpenReader
// sits on object-store responses, so corrupt or truncated input must
// produce an error — never a panic — and any header it accepts must be
// safe to drive ReadArray and the chunk-masked ReadArrayChunks with
// (bounded sizes only). The two share one decode routine: the chunks
// mask marks (bit i, chunk i, cycled) must come out of the masked read
// as ReadArray decodes them, and the masked read, which reads a subset
// of the pages, must succeed wherever ReadArray does. A range table
// with a flipped bit must fail the open with ErrChecksum.
func FuzzOpenReader(f *testing.F) {
	g := grid.NewUniform(4, 4, 4)
	ds := grid.NewDataset(g)
	fld := grid.NewField("v02", g.NumPoints())
	for i := range fld.Values {
		fld.Values[i] = float32(i) * 0.5
	}
	ds.MustAddField(fld)
	for _, kind := range []compress.Kind{compress.None, compress.Gzip, compress.LZ4} {
		var buf bytes.Buffer
		if err := Write(&buf, ds, WriteOptions{Codec: kind, ChunkSize: 64}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint64(0b0110))
		// A checksum-bearing sibling so mutations explore the trailing
		// table's geometry (testdata/fuzz holds the out-of-range case).
		buf.Reset()
		if err := Write(&buf, ds, WriteOptions{Codec: kind, ChunkSize: 64, Checksum: true, ChecksumPageSize: 64}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes(), uint64(0b1001))
	}
	f.Add([]byte(Magic), uint64(0))
	f.Add([]byte("VND1\x00\x00\x00\x02{}"), uint64(0))
	f.Add([]byte("VND1\xff\xff\xff\xff"), uint64(0))

	f.Fuzz(func(t *testing.T, data []byte, mask uint64) {
		r, err := OpenReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		if table := r.Header().Ranges; len(table) > 0 {
			if _, err := OpenReader(bytes.NewReader(flipRangeBit(t, data, mask))); !errors.Is(err, ErrChecksum) {
				t.Fatalf("a range table with bit %d flipped opened with %v, want ErrChecksum", mask%uint64(8*len(table)), err)
			}
		}
		for _, a := range r.Header().Arrays {
			if a.CompressedSize() > int64(len(data)) || a.RawSize() > maxFuzzRawSize {
				continue
			}
			if _, err := r.ChunkRanges(a.Name, nil); err != nil {
				t.Fatalf("ChunkRanges(%q) of an accepted header: %v", a.Name, err)
			}
			// Errors are expected on corrupt blocks; panics are not.
			want := make([]bool, len(a.Chunks))
			for i := range want {
				want[i] = mask>>(i%64)&1 != 0
			}
			part := make([]float32, a.RawSize()/4)
			partErr := r.ReadArrayChunksInto(a.Name, want, part)
			field, err := r.ReadArray(a.Name)
			if err != nil {
				continue // ReadArray also holds the array to the grid
			}
			if partErr != nil {
				t.Fatalf("ReadArrayChunksInto(%q) failed where ReadArray succeeded: %v", a.Name, partErr)
			}
			full, got := FloatsToBytes(field.Values), FloatsToBytes(part)
			var roff int
			for i, c := range a.Chunks {
				if want[i] && !bytes.Equal(got[roff:roff+c.Raw], full[roff:roff+c.Raw]) {
					t.Fatalf("ReadArrayChunksInto(%q) chunk %d differs from ReadArray's", a.Name, i)
				}
				roff += c.Raw
			}
		}
	})
}

// flipRangeBit returns data with bit mask (mod the table's size) of its
// header's range table flipped and the header re-encoded in place.
func flipRangeBit(t *testing.T, data []byte, mask uint64) []byte {
	t.Helper()
	hlen := binary.BigEndian.Uint32(data[len(Magic):])
	var h Header
	if err := json.Unmarshal(data[len(Magic)+4:len(Magic)+4+int(hlen)], &h); err != nil {
		t.Fatal(err)
	}
	bit := mask % uint64(8*len(h.Ranges))
	h.Ranges[bit/8] ^= 1 << (bit % 8)
	enc, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	out := binary.BigEndian.AppendUint32([]byte(Magic), uint32(len(enc)))
	out = append(out, enc...)
	return append(out, data[len(Magic)+4+int(hlen):]...)
}
