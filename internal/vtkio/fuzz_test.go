package vtkio

import (
	"bytes"
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
// safe to drive ReadArrayBytes and ReadArray with (bounded sizes only).
// The two share one decode routine, so when both succeed they must agree.
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
		f.Add(buf.Bytes())
		// A checksum-bearing sibling so mutations explore the trailing
		// table's geometry (testdata/fuzz holds the out-of-range case).
		buf.Reset()
		if err := Write(&buf, ds, WriteOptions{Codec: kind, ChunkSize: 64, Checksum: true, ChecksumPageSize: 64}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(Magic))
	f.Add([]byte("VND1\x00\x00\x00\x02{}"))
	f.Add([]byte("VND1\xff\xff\xff\xff"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := OpenReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, a := range r.Header().Arrays {
			if a.CompressedSize() > int64(len(data)) || a.RawSize() > maxFuzzRawSize {
				continue
			}
			// Errors are expected on corrupt blocks; panics are not.
			raw, rawErr := r.ReadArrayBytes(a.Name)
			field, err := r.ReadArray(a.Name)
			if err != nil {
				continue // ReadArray also holds the array to the grid
			}
			if rawErr != nil {
				t.Fatalf("ReadArray(%q) succeeded where ReadArrayBytes failed: %v", a.Name, rawErr)
			}
			if !bytes.Equal(raw, FloatsToBytes(field.Values)) {
				t.Fatalf("ReadArray(%q) and ReadArrayBytes disagree", a.Name)
			}
		}
	})
}
