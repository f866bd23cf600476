package core

import (
	"bytes"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"

	"vizndp/internal/grid"
	"vizndp/internal/objstore"
	"vizndp/internal/s3fs"
	"vizndp/internal/vtkio"
)

// serveFS serves fsys with no server options — no array cache, no payload
// cache — and returns a connected client.
func serveFS(t *testing.T, fsys fs.FS) *Client {
	t.Helper()
	srv := NewServer(fsys)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	client, err := Dial(ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client
}

// countingStore is mountStore with the store's HEADs and GETs counted as
// they arrive. The store's own objstore.requests.* counters tick after a
// response has gone out, so a test that reads them the moment a fetch
// returns can find the fetch's last request still uncounted; these cannot
// be behind.
func countingStore(t *testing.T) (mount *s3fs.FS, client *objstore.Client, heads, gets *atomic.Int64) {
	t.Helper()
	backing, err := objstore.NewServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	heads, gets = new(atomic.Int64), new(atomic.Int64)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodHead:
			heads.Add(1)
		case http.MethodGet:
			gets.Add(1)
		}
		backing.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	client = objstore.NewClient(ts.Listener.Addr().String(), nil)
	return s3fs.New(client, "sim"), client, heads, gets
}

// TestMetadataCacheStoreRequests counts what an uncached load costs the
// object store. The first load of a file version reads its preamble,
// header and checksum table; every later one is the open's HEAD and one
// ranged GET for the array; and a rewritten object (new mtime) has its
// header read again — and its new bytes served.
func TestMetadataCacheStoreRequests(t *testing.T) {
	mount, store, heads, gets := countingStore(t)
	const key = "run/ts0.vnd"
	put := func(scale float32) []byte {
		g, f := sphereField(16)
		for i := range f.Values {
			f.Values[i] *= scale
		}
		ds := grid.NewDataset(g)
		ds.MustAddField(f)
		dir := t.TempDir()
		abs, _ := writeChecksummedFile(t, dir, ds)
		data, err := os.ReadFile(abs)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put("sim", key, data); err != nil {
			t.Fatal(err)
		}
		return vtkio.FloatsToBytes(f.Values)
	}
	client := serveFS(t, mount)
	fetch := func(want []byte) (h, g int64) {
		t.Helper()
		h0, g0 := heads.Load(), gets.Load()
		raw, _, err := client.FetchRaw(key, "d")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want) {
			t.Fatal("served array differs from the stored one")
		}
		return heads.Load() - h0, gets.Load() - g0
	}

	want := put(1)
	if h, g := fetch(want); h != 1 || g != 4 {
		t.Errorf("first load: %d HEADs and %d GETs, want 1 and 4 (preamble, header, checksum table, array)", h, g)
	}
	for i := 0; i < 3; i++ {
		if h, g := fetch(want); h+g > 2 || g != 1 {
			t.Errorf("repeat load %d: %d HEADs and %d GETs, want 1 and 1", i, h, g)
		}
	}
	want = put(2)
	if h, g := fetch(want); h != 1 || g != 4 {
		t.Errorf("load after a rewrite: %d HEADs and %d GETs, want 1 and 4 (metadata re-read)", h, g)
	}
	if h, g := fetch(want); h+g > 2 {
		t.Errorf("repeat load after a rewrite: %d HEADs and %d GETs, want 1 and 1", h, g)
	}
}

// TestMetadataCacheNotPoisoned: the framing reads carry no checksum, so
// a store fault can hand the server a header that parses but lies about
// a chunk size. The load that used it fails — and must take the cached
// metadata with it: the file version is fine, and the next fetch has to
// read the header again and succeed rather than fail forever on the lie.
func TestMetadataCacheNotPoisoned(t *testing.T) {
	g, f := sphereField(16)
	ds := grid.NewDataset(g)
	ds.MustAddField(f)
	dir := t.TempDir()
	abs, rel := writeChecksummedFile(t, dir, ds)
	clean, err := os.ReadFile(abs)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := vtkio.OpenReader(bytes.NewReader(clean))
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt exactly the first read past the 8-byte preamble — the header
	// — and find a seed whose bit flip lands in a digit of a chunk size
	// and leaves a digit there.
	corrupting := func(seed uint64) *objstore.CorruptFS {
		return objstore.NewCorruptFS(os.DirFS(dir), objstore.CorruptOptions{Seed: seed, Every: 1 << 30, MinReadSize: 9})
	}
	seed, found := uint64(0), false
	for ; seed < 20000; seed++ {
		file, err := corrupting(seed).Open(rel)
		if err != nil {
			t.Fatal(err)
		}
		if r, err := vtkio.OpenReader(file.(io.ReaderAt)); err == nil {
			lied := r.Header().Array(f.Name)
			found = lied != nil && !reflect.DeepEqual(lied.Chunks, truth.Header().Array(f.Name).Chunks)
		}
		file.Close()
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no seed makes the header lie about a chunk size")
	}

	cfs := corrupting(seed)
	client := serveFS(t, cfs)
	if _, _, err := client.FetchRaw(rel, f.Name); err == nil {
		t.Fatal("fetch through a lying header succeeded")
	}
	if got := cfs.Stats().Injected; got != 1 {
		t.Fatalf("%d faults injected, want exactly the one in the header", got)
	}
	raw, _, err := client.FetchRaw(rel, f.Name)
	if err != nil {
		t.Fatalf("fetch after the failed one: %v (the lying header was kept)", err)
	}
	if !bytes.Equal(raw, vtkio.FloatsToBytes(f.Values)) {
		t.Fatal("fetch after the failed one served different bytes")
	}
	// And from here on the file's metadata is resident again.
	before := metaMetrics.Hits.Value()
	if _, _, err := client.FetchRaw(rel, f.Name); err != nil {
		t.Fatal(err)
	}
	if metaMetrics.Hits.Value() != before+1 {
		t.Error("third fetch did not find the re-read metadata resident")
	}
}
