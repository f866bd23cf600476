package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"vizndp/internal/grid"
	"vizndp/internal/msgpack"
	"vizndp/internal/netsim"
	"vizndp/internal/vtkio"
)

// writeArrays writes a raw dataset of n³ points holding one array per
// name, each with its own values, and returns the directory and each
// array's stored bytes.
func writeArrays(t testing.TB, n int, names ...string) (string, map[string][]byte) {
	t.Helper()
	g := grid.NewUniform(n, n, n)
	ds := grid.NewDataset(g)
	stored := map[string][]byte{}
	for k, name := range names {
		f := grid.NewField(name, g.NumPoints())
		for i := range f.Values {
			f.Values[i] = float32(i%977) + float32(k)*0.25
		}
		ds.MustAddField(f)
		stored[name] = vtkio.FloatsToBytes(f.Values)
	}
	dir := t.TempDir()
	if err := vtkio.WriteFile(filepath.Join(dir, "ts0.vnd"), ds, vtkio.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	return dir, stored
}

// TestUncachedRawRepliesNeverAliasThePlan: an uncached server loads each
// array into a recycled plan buffer and releases it right after the
// select, while the reply is still to be checksummed and written. Four
// callers fetch two arrays raw at once over a 50 MB/s link, so replies
// take milliseconds to write and one request's load reuses a buffer
// another request's reply came from; every reply must be its array's
// stored bytes. A reply that aliased the plan would be overwritten
// mid-write, which -race reports and the bytes show.
func TestUncachedRawRepliesNeverAliasThePlan(t *testing.T) {
	dir, stored := writeArrays(t, 48, "a", "b")
	srv := NewServer(os.DirFS(dir))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(netsim.NewLink(400e6, 0).Listener(ln))
	defer srv.Close()
	const callers, rounds = 4, 6
	var wg sync.WaitGroup
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client, err := Dial(ln.Addr().String(), nil)
			if err != nil {
				t.Error(err)
				return
			}
			defer client.Close()
			for i := 0; i < rounds; i++ {
				array := []string{"a", "b"}[(w+i)%2]
				got, _, err := client.FetchRawContext(context.Background(), "ts0.vnd", array)
				if err != nil {
					t.Errorf("caller %d: fetch %s: %v", w, array, err)
					return
				}
				if !bytes.Equal(got, stored[array]) {
					t.Errorf("caller %d: array %s: reply differs from the stored bytes", w, array)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCachedRawFetchCopiesNothing: a raw fetch of a cached 8 MiB array
// goes to the socket from the cache entry's own memory. The reply is
// neither serialized into a second buffer nor joined into one frame, so
// the whole process — server pipeline, reply write, and a client that
// discards what it reads — allocates under 1 MiB per fetch.
func TestCachedRawFetchCopiesNothing(t *testing.T) {
	dir, stored := writeArrays(t, 128, "v")
	srv := NewServer(os.DirFS(dir), WithCacheBytes(64<<20))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	e := msgpack.NewEncoder(64)
	e.PutArrayLen(4)
	e.PutInt(0) // request
	e.PutInt(1)
	e.PutString(MethodFetchRaw)
	e.PutArrayLen(2)
	e.PutString("ts0.vnd")
	e.PutString("v")
	req := binary.BigEndian.AppendUint32(nil, uint32(e.Len()))
	req = append(req, e.Bytes()...)
	// send writes one request and returns the reply frame's length.
	send := func() int64 {
		var hdr [4]byte
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			t.Fatal(err)
		}
		return int64(binary.BigEndian.Uint32(hdr[:]))
	}

	// The first fetch loads the cache; its reply is checked whole.
	body := make([]byte, send())
	if _, err := io.ReadFull(conn, body); err != nil {
		t.Fatal(err)
	}
	v, err := msgpack.Unmarshal(body)
	if err != nil {
		t.Fatal(err)
	}
	reply, _ := v.([]any)
	if len(reply) != 4 || reply[2] != nil {
		t.Fatalf("reply %v", reply[:min(len(reply), 3)])
	}
	if data, _ := reply[3].(map[string]any)["data"].([]byte); !bytes.Equal(data, stored["v"]) {
		t.Fatal("raw reply differs from the stored bytes")
	}

	const fetches = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < fetches; i++ {
		n := send()
		if n < int64(len(stored["v"])) {
			t.Fatalf("reply of %d bytes", n)
		}
		if _, err := io.CopyN(io.Discard, conn, n); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perFetch := float64(after.TotalAlloc-before.TotalAlloc) / fetches
	t.Logf("%.0f B allocated per cached raw fetch of an %d B array", perFetch, len(stored["v"]))
	if perFetch >= 1<<20 {
		t.Errorf("a cached raw fetch allocates %.0f B, want < 1 MiB: the reply is copied", perFetch)
	}
}
