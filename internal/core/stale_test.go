package core

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/fstest"

	"vizndp/internal/compress"
	"vizndp/internal/grid"
	"vizndp/internal/objstore"
	"vizndp/internal/s3fs"
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

// mountStore starts a real object store and returns an s3fs mount of its
// bucket "sim" — the storage node's filesystem — and the client that
// writes to it.
func mountStore(t *testing.T) (*s3fs.FS, *objstore.Client) {
	t.Helper()
	store, err := objstore.NewServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(store)
	t.Cleanup(ts.Close)
	c := objstore.NewClient(ts.Listener.Addr().String(), nil)
	return s3fs.New(c, "sim"), c
}

// overwritePair encodes two datasets whose files have one size and differ
// only well inside the array: not in the first 4 KiB page, not in the last.
// probe is the index of the one value that differs.
func overwritePair(t *testing.T) (bytesA, bytesB []byte, probe int, a, b float32) {
	t.Helper()
	g := grid.NewUniform(16, 16, 16)
	fa := grid.NewField("d", g.NumPoints())
	for i := range fa.Values {
		fa.Values[i] = float32(i % 17)
	}
	probe = g.NumPoints() / 2
	fb := grid.NewField("d", g.NumPoints())
	copy(fb.Values, fa.Values)
	fb.Values[probe] = -1
	dsA, dsB := grid.NewDataset(g), grid.NewDataset(g)
	dsA.MustAddField(fa)
	dsB.MustAddField(fb)
	bytesA, bytesB = encodeDataset(t, dsA), encodeDataset(t, dsB)
	const page = 4096
	if len(bytesA) != len(bytesB) || len(bytesA) < 3*page ||
		!bytes.Equal(bytesA[:page], bytesB[:page]) ||
		!bytes.Equal(bytesA[len(bytesA)-page:], bytesB[len(bytesB)-page:]) ||
		bytes.Equal(bytesA, bytesB) {
		t.Fatalf("fixture: want same-size files (%d, %d bytes) differing only in middle pages", len(bytesA), len(bytesB))
	}
	return bytesA, bytesB, probe, fa.Values[probe], fb.Values[probe]
}

// rawValue fetches the whole array through the server's fetch pipeline
// and returns one value of it.
func rawValue(srv *Server, path string, index int) (float32, error) {
	res, err := srv.serveFetch(context.Background(), []any{path, "d"}, rawSelector)
	if err != nil {
		return 0, err
	}
	vals, err := vtkio.BytesToFloats(res.(map[string]any)["data"].([]byte))
	if err != nil {
		return 0, err
	}
	return vals[index], nil
}

// TestCacheVersionSameSizeOverwrite: on the storage node's real
// filesystem — s3fs over an object store — an overwrite that keeps the
// object's size and changes only a middle page is seen by the very next
// cached fetch, because the store stamps every PUT strictly later than
// the object it replaces and that stamp is the cache key's version. (A
// content fingerprint of the first and last page, which this replaced,
// could not see this overwrite.)
func TestCacheVersionSameSizeOverwrite(t *testing.T) {
	bytesA, bytesB, probe, a, b := overwritePair(t)
	fsys, c := mountStore(t)
	if err := c.Put("sim", "run/ts0.vnd", bytesA); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(fsys, WithCacheBytes(16<<20), WithPayloadCacheBytes(16<<20))
	t.Cleanup(srv.Close)

	for _, pass := range []string{"first", "repeat"} {
		if got, err := rawValue(srv, "run/ts0.vnd", probe); err != nil || got != a {
			t.Fatalf("%s read got %g, %v; want %g", pass, got, err, a)
		}
		// The repeat must be a genuine hit: the version is stable while
		// nothing is written.
		if srv.cache.Len() != 1 || srv.payloads.Len() != 1 {
			t.Fatalf("after the %s read the caches hold %d arrays, %d payloads; want 1, 1",
				pass, srv.cache.Len(), srv.payloads.Len())
		}
	}
	// Back to back, so the two PUTs share a tick of the file clock.
	for i, want := range []struct {
		data []byte
		val  float32
	}{{bytesB, b}, {bytesA, a}, {bytesB, b}} {
		if err := c.Put("sim", "run/ts0.vnd", want.data); err != nil {
			t.Fatal(err)
		}
		if got, err := rawValue(srv, "run/ts0.vnd", probe); err != nil || got != want.val {
			t.Fatalf("read after overwrite %d got %g, %v; want %g (stale cache entry served)", i, got, err, want.val)
		}
	}
}

// TestCacheZeroMtimeOverwrite: a filesystem that reports no modification
// time (fstest.MapFS here; an s3fs mount of a store too old to stamp its
// objects) gives a cache nothing but the size to key on, under which a
// same-size overwrite would be served stale forever. The server refuses,
// naming the filesystem, instead of guessing a key; with nothing cached
// it needs no version and serves, overwrites included.
func TestCacheZeroMtimeOverwrite(t *testing.T) {
	bytesA, bytesB, probe, a, b := overwritePair(t)
	file := &fstest.MapFile{Data: bytesA} // zero ModTime
	mfs := fstest.MapFS{"run/ts0.vnd": file}

	for name, opt := range map[string]ServerOption{
		"array cache":   WithCacheBytes(16 << 20),
		"payload cache": WithPayloadCacheBytes(16 << 20),
	} {
		srv := NewServer(mfs, opt)
		_, err := rawValue(srv, "run/ts0.vnd", probe)
		srv.Close()
		if err == nil {
			t.Fatalf("%s over a zero-mtime filesystem served a fetch", name)
		}
		for _, want := range []string{"fstest.MapFS", "no modification time", "run/ts0.vnd"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not mention %q", name, err, want)
			}
		}
	}

	srv := NewServer(mfs)
	t.Cleanup(srv.Close)
	if got, err := rawValue(srv, "run/ts0.vnd", probe); err != nil || got != a {
		t.Fatalf("uncached read got %g, %v; want %g", got, err, a)
	}
	file.Data = bytesB
	if got, err := rawValue(srv, "run/ts0.vnd", probe); err != nil || got != b {
		t.Fatalf("uncached read after the overwrite got %g, %v; want %g", got, err, b)
	}
}
