package core

import (
	"bytes"
	"context"
	"testing"
	"testing/fstest"

	"vizndp/internal/arraycache"
	"vizndp/internal/compress"
	"vizndp/internal/grid"
	"vizndp/internal/vtkio"
)

// encodeDataset serializes one dataset the way datagen would.
func encodeDataset(t *testing.T, ds *grid.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := vtkio.Write(&buf, ds, vtkio.WriteOptions{Codec: compress.None}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCacheZeroMtimeOverwrite is the regression test for the stale-float
// bug on mtime-less stores (s3fs and fstest.MapFS both stat a zero
// ModTime): the array cache keys entries by (mtime, size), so a
// same-size overwrite used to produce an identical key and the cache
// served the OLD array forever. The fix mixes a content fingerprint into
// the version when mtime is zero.
func TestCacheZeroMtimeOverwrite(t *testing.T) {
	g := grid.NewUniform(10, 10, 10)
	fa := grid.NewField("d", g.NumPoints())
	fb := grid.NewField("d", g.NumPoints())
	for i := range fa.Values {
		fa.Values[i] = float32(i % 17)
		fb.Values[i] = float32((i + 5) % 17)
	}
	dsA := grid.NewDataset(g)
	dsA.MustAddField(fa)
	dsB := grid.NewDataset(g)
	dsB.MustAddField(fb)
	bytesA := encodeDataset(t, dsA)
	bytesB := encodeDataset(t, dsB)
	if len(bytesA) != len(bytesB) {
		t.Fatalf("encodings differ in size (%d vs %d); test needs a same-size overwrite", len(bytesA), len(bytesB))
	}

	file := &fstest.MapFile{Data: bytesA} // zero ModTime, like s3fs
	mfs := fstest.MapFS{"run/ts0.vnd": file}
	srv := NewServer(mfs, WithCacheBytes(16<<20))
	t.Cleanup(func() { srv.Close() })
	ctx := context.Background()

	readValue := func() float32 {
		t.Helper()
		res, err := srv.serveFetch(ctx, []any{"run/ts0.vnd", "d"}, rawSelector)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := vtkio.BytesToFloats(res.(map[string]any)["data"].([]byte))
		if err != nil {
			t.Fatal(err)
		}
		return vals[42]
	}

	if got := readValue(); got != fa.Values[42] {
		t.Fatalf("first read got %g, want %g", got, fa.Values[42])
	}
	// Unchanged file: the repeat must be a genuine cache hit, proving the
	// fingerprint is stable and the cache is actually engaged.
	if srv.cache.Len() != 1 {
		t.Fatalf("cache holds %d entries after first read", srv.cache.Len())
	}
	if got := readValue(); got != fa.Values[42] {
		t.Fatalf("repeat read got %g, want %g", got, fa.Values[42])
	}
	if srv.cache.Len() != 1 {
		t.Errorf("stable overwrite-free repeat grew the cache to %d entries", srv.cache.Len())
	}

	// Same-size overwrite with zero mtime: before the fix this read
	// returned fa's value from the stale cache entry.
	file.Data = bytesB
	if got := readValue(); got != fb.Values[42] {
		t.Fatalf("post-overwrite read got %g, want %g (stale cache entry served)", got, fb.Values[42])
	}

	// The versions really must differ via the fingerprint, not by luck.
	vA, errA := srvVersionFor(srv, bytesA)
	vB, errB := srvVersionFor(srv, bytesB)
	if errA != nil || errB != nil {
		t.Fatalf("version probe: %v / %v", errA, errB)
	}
	if vA == vB {
		t.Error("versions identical across overwrite")
	}
	if vA.MTime != 0 || vB.MTime != 0 {
		t.Errorf("zero-mtime store produced nonzero MTime: %d / %d", vA.MTime, vB.MTime)
	}
	if vA.Fingerprint == 0 || vB.Fingerprint == 0 {
		t.Error("zero-mtime version carries no fingerprint")
	}
}

// srvVersionFor stats a one-file MapFS holding data through a fresh
// server, returning the version key it derives.
func srvVersionFor(_ *Server, data []byte) (arraycache.Version, error) {
	s := NewServer(fstest.MapFS{"f": &fstest.MapFile{Data: data}})
	defer s.Close()
	return s.fileVersion("f")
}

// TestFingerprintTailSensitivity pins that the fingerprint sees both
// ends of the file: flipping a byte in the last page of a multi-page
// file must change the version even though the first page is identical.
func TestFingerprintTailSensitivity(t *testing.T) {
	data := make([]byte, 3*fingerprintPage)
	for i := range data {
		data[i] = byte(i)
	}
	v1, err := srvVersionFor(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	tail := append([]byte(nil), data...)
	tail[len(tail)-3] ^= 0xff
	v2, err := srvVersionFor(nil, tail)
	if err != nil {
		t.Fatal(err)
	}
	if v1 == v2 {
		t.Error("tail-page change did not change the version")
	}
	// A middle-page change is invisible by design (the fingerprint reads
	// first + last page only); mtime-bearing filesystems cover that case.
	mid := append([]byte(nil), data...)
	mid[fingerprintPage+10] ^= 0xff
	v3, err := srvVersionFor(nil, mid)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v3 {
		t.Log("middle-page change detected (stronger than required)")
	}
}
