package vtkio

import (
	"bytes"
	"runtime"
	"testing"

	"vizndp/internal/compress"
	"vizndp/internal/sim"
)

// TestWriteBytesPinned holds Write's output, header and trailer
// included, to the bytes it has always written for one generated
// asteroid step: a writer change that is meant to be a pure speed-up
// must leave every stored object as it is.
func TestWriteBytesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("bytes pinned on amd64; Go may fuse multiply-adds on %s, so the generated floats differ there", runtime.GOARCH)
	}
	ds, err := sim.AsteroidConfig{N: 48, Seed: 7}.Generate(sim.AsteroidMaxStep)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		codec compress.Kind
		size  int
		crc   uint32
	}{
		{compress.None, 4868070, 0x6019068a},
		{compress.LZ4, 1917974, 0xbe5e9b0f},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, ds, WriteOptions{Codec: tc.codec, Checksum: true}); err != nil {
			t.Fatal(err)
		}
		if got := Checksum(buf.Bytes()); buf.Len() != tc.size || got != tc.crc {
			t.Errorf("%v: %d bytes, crc32c %#08x; want %d bytes, %#08x", tc.codec, buf.Len(), got, tc.size, tc.crc)
		}
	}
}
