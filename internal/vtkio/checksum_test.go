package vtkio

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"vizndp/internal/compress"
	"vizndp/internal/grid"
)

// writeChecksummed serializes ds with the page-CRC section enabled.
func writeChecksummed(t *testing.T, ds *grid.Dataset, opts WriteOptions) []byte {
	t.Helper()
	opts.Checksum = true
	var buf bytes.Buffer
	if err := Write(&buf, ds, opts); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func TestChecksumRoundTripAllCodecs(t *testing.T) {
	ds := makeDataset(10, 10, 10)
	for _, kind := range []compress.Kind{compress.None, compress.Gzip, compress.LZ4} {
		t.Run(kind.String(), func(t *testing.T) {
			// Small pages so every array spans several table entries.
			file := writeChecksummed(t, ds, WriteOptions{Codec: kind, ChunkSize: 512, ChecksumPageSize: 256})
			r, err := OpenReader(bytes.NewReader(file))
			if err != nil {
				t.Fatal(err)
			}
			ck := r.Header().Checksums
			if ck == nil || ck.Algo != ChecksumAlgo || ck.Pages == 0 {
				t.Fatalf("checksum section missing or empty: %+v", ck)
			}
			got, err := r.ReadDataset()
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range ds.FieldNames() {
				want := ds.Field(name).Values
				have := got.Field(name).Values
				for i := range want {
					if want[i] != have[i] {
						t.Fatalf("array %s[%d] = %v, want %v", name, i, have[i], want[i])
					}
				}
			}
		})
	}
}

func TestChecksumDetectsFlippedBit(t *testing.T) {
	ds := makeDataset(8, 8, 8)
	file := writeChecksummed(t, ds, WriteOptions{Codec: compress.None, ChunkSize: 512, ChecksumPageSize: 256})
	r, err := OpenReader(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a single bit in each array's stored extent in turn; the read
	// for that array (and only that array) must fail with ErrChecksum.
	for _, info := range r.Header().Arrays {
		bad := append([]byte(nil), file...)
		bad[info.Offset+info.CompressedSize()/2] ^= 0x10
		r2, err := OpenReader(bytes.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r2.ReadArray(info.Name); !errors.Is(err, ErrChecksum) {
			t.Errorf("array %q: flipped bit read err = %v, want ErrChecksum", info.Name, err)
		}
		for _, other := range r.Header().ArrayNames() {
			if other == info.Name {
				continue
			}
			if _, err := r2.ReadArray(other); err != nil {
				t.Errorf("intact array %q unreadable: %v", other, err)
			}
		}
	}
}

func TestChecksumDetectsCorruptionUnderNoneCodec(t *testing.T) {
	// The "none" codec decompresses anything, so without checksums a
	// flipped bit marches silently into wrong floats — the exact failure
	// mode the section exists to catch.
	ds := makeDataset(6, 6, 6)
	file := writeChecksummed(t, ds, WriteOptions{Codec: compress.None})
	r, err := OpenReader(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	info := r.Header().Array("v02")
	bad := append([]byte(nil), file...)
	bad[info.Offset] ^= 0x01
	r2, err := OpenReader(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.ReadArray("v02"); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt none-codec read err = %v, want ErrChecksum", err)
	}
}

// legacyHeader is the header shape readers had before the checksum
// section existed: no "checksums" field. The interop test reads a
// checksum-bearing file through it, exactly as an old binary would.
type legacyHeader struct {
	Dims    [3]int      `json:"dims"`
	Origin  [3]float64  `json:"origin"`
	Spacing [3]float64  `json:"spacing"`
	Arrays  []ArrayInfo `json:"arrays"`
}

func TestChecksumFileReadableByLegacyReader(t *testing.T) {
	ds := makeDataset(8, 8, 8)
	file := writeChecksummed(t, ds, WriteOptions{Codec: compress.LZ4, ChunkSize: 1024})

	// Old reader: parse magic + header length, unmarshal into the legacy
	// struct (unknown "checksums" key is ignored by encoding/json), then
	// walk each array's chunks without any verification.
	if string(file[:len(Magic)]) != Magic {
		t.Fatal("bad magic")
	}
	hlen := binary.BigEndian.Uint32(file[len(Magic):])
	var h legacyHeader
	if err := json.Unmarshal(file[len(Magic)+4:len(Magic)+4+int(hlen)], &h); err != nil {
		t.Fatalf("legacy header parse: %v", err)
	}
	for _, info := range h.Arrays {
		codec, err := info.codec()
		if err != nil {
			t.Fatal(err)
		}
		var raw []byte
		off := info.Offset
		for _, c := range info.Chunks {
			dec := make([]byte, c.Raw)
			if err := codec.DecompressInto(dec, file[off:off+int64(c.Comp)]); err != nil {
				t.Fatalf("legacy decompress %q: %v", info.Name, err)
			}
			raw = append(raw, dec...)
			off += int64(c.Comp)
		}
		vals, err := BytesToFloats(raw)
		if err != nil {
			t.Fatal(err)
		}
		want := ds.Field(info.Name).Values
		if len(vals) != len(want) {
			t.Fatalf("legacy read of %q got %d values, want %d", info.Name, len(vals), len(want))
		}
		for i := range want {
			if vals[i] != want[i] {
				t.Fatalf("legacy read %s[%d] = %v, want %v", info.Name, i, vals[i], want[i])
			}
		}
	}
}

func TestChecksumlessFileStillOpens(t *testing.T) {
	// New readers must keep accepting files from writers that predate
	// (or disable) the section.
	ds := makeDataset(4, 4, 4)
	var buf bytes.Buffer
	if err := Write(&buf, ds, WriteOptions{Codec: compress.LZ4}); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Header().Checksums != nil {
		t.Fatal("checksum section present without opt-in")
	}
	if _, err := r.ReadDataset(); err != nil {
		t.Fatal(err)
	}
}

// buildChecksumFile hand-assembles a minimal one-array file whose
// checksum pointer is produced by mutate, so each invalid-geometry case
// gets a header of whatever length its numbers need.
func buildChecksumFile(t *testing.T, mutate func(*ChecksumInfo)) []byte {
	t.Helper()
	data := []byte{1, 2, 3, 4}
	h := Header{
		Dims:    [3]int{2, 2, 2},
		Spacing: [3]float64{1, 1, 1},
		Arrays:  []ArrayInfo{{Name: "v02", Codec: "none", Chunks: []ChunkInfo{{Comp: 4, Raw: 4}}}},
	}
	var enc []byte
	hlen := 0
	for iter := 0; iter < 8; iter++ {
		off := int64(len(Magic) + 4 + hlen)
		h.Arrays[0].Offset = off
		ck := ChecksumInfo{Algo: ChecksumAlgo, PageSize: 64, Offset: off + int64(len(data)), Pages: 1}
		mutate(&ck)
		h.Checksums = &ck
		var err error
		enc, err = json.Marshal(&h)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) == hlen {
			break
		}
		hlen = len(enc)
	}
	if len(enc) != hlen {
		t.Fatal("test header layout did not converge")
	}
	out := []byte(Magic)
	out = binary.BigEndian.AppendUint32(out, uint32(hlen))
	out = append(out, enc...)
	out = append(out, data...)
	out = binary.LittleEndian.AppendUint32(out, Checksum(data))
	return out
}

func TestOpenReaderRejectsBadChecksumSection(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*ChecksumInfo)
	}{
		{"offset past EOF", func(ck *ChecksumInfo) { ck.Offset = 1 << 20 }},
		{"negative offset", func(ck *ChecksumInfo) { ck.Offset = -8 }},
		{"page count mismatch", func(ck *ChecksumInfo) { ck.Pages++ }},
		{"negative page count", func(ck *ChecksumInfo) { ck.Pages = -1 }},
		{"zero page size", func(ck *ChecksumInfo) { ck.PageSize = 0 }},
		{"negative page size", func(ck *ChecksumInfo) { ck.PageSize = -4096 }},
		{"unknown algo", func(ck *ChecksumInfo) { ck.Algo = "md5" }},
		{"overflowing extent", func(ck *ChecksumInfo) { ck.Offset = 1 << 62 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := OpenReader(bytes.NewReader(buildChecksumFile(t, tc.mutate))); err == nil {
				t.Error("OpenReader accepted a bad checksum section")
			}
		})
	}

	// The unmutated file must open and read clean, proving the builder
	// itself is not what the cases above are rejecting.
	r, err := OpenReader(bytes.NewReader(buildChecksumFile(t, func(*ChecksumInfo) {})))
	if err != nil {
		t.Fatalf("control file failed to open: %v", err)
	}
	// Its one value does not fill the grid, so it is read and verified,
	// not decoded into a field.
	if err := r.VerifyChecksums(); err != nil {
		t.Fatalf("control file failed to read: %v", err)
	}
}

func TestChecksumTruncatedTableRejectedAtOpen(t *testing.T) {
	// A file cut inside the trailing table must be rejected by
	// OpenReader (the satellite case: previously the geometry was only
	// exercised — and faulted — on the first verified read).
	ds := makeDataset(4, 4, 4)
	file := writeChecksummed(t, ds, WriteOptions{Codec: compress.None})
	if _, err := OpenReader(bytes.NewReader(file[:len(file)-2])); err == nil {
		t.Fatal("OpenReader accepted a file truncated inside the checksum table")
	}
}

func TestPageCRCsSpanChunkBoundaries(t *testing.T) {
	// Pages are over the array's stored extent, not per chunk: the CRCs
	// of [a,b,c] split any way must match those of one flat buffer.
	flat := make([]byte, 1000)
	for i := range flat {
		flat[i] = byte(i * 31)
	}
	want := pageCRCs([][]byte{flat}, 256)
	for _, split := range [][]int{{100, 400, 500}, {1, 999}, {1000}, {256, 256, 256, 232}} {
		var chunks [][]byte
		off := 0
		for _, n := range split {
			chunks = append(chunks, flat[off:off+n])
			off += n
		}
		got := pageCRCs(chunks, 256)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("split %v: crcs %v, want %v", split, got, want)
		}
	}
}

func TestVerifyChecksums(t *testing.T) {
	ds := makeDataset(8, 8, 8)
	file := writeChecksummed(t, ds, WriteOptions{Codec: compress.LZ4, ChunkSize: 512, ChecksumPageSize: 256})
	r, err := OpenReader(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.VerifyChecksums(); err != nil {
		t.Fatalf("clean file failed verification: %v", err)
	}
	// Any single flipped bit in any array extent must be caught.
	for _, info := range r.Header().Arrays {
		bad := append([]byte(nil), file...)
		bad[info.Offset+1] ^= 0x80
		r2, err := OpenReader(bytes.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		if err := r2.VerifyChecksums(); !errors.Is(err, ErrChecksum) {
			t.Errorf("array %q: corrupt VerifyChecksums err = %v, want ErrChecksum", info.Name, err)
		}
	}
	// A checksum-less file verifies vacuously.
	var buf bytes.Buffer
	if err := Write(&buf, ds, WriteOptions{Codec: compress.None}); err != nil {
		t.Fatal(err)
	}
	r3, err := OpenReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := r3.VerifyChecksums(); err != nil {
		t.Fatalf("checksum-less file verification = %v, want nil", err)
	}
}
