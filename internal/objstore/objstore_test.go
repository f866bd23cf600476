package objstore

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vizndp/internal/netsim"
	"vizndp/internal/telemetry"
)

// startStore spins up a server over httptest and returns a client.
func startStore(t *testing.T) (*Client, *Server) {
	t.Helper()
	return startStoreAt(t, t.TempDir())
}

// startStoreAt is startStore over the given root directory.
func startStoreAt(t *testing.T, root string) (*Client, *Server) {
	t.Helper()
	s, err := NewServer(root)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	addr := ts.Listener.Addr().String()
	return NewClient(addr, nil), s
}

// fakeStore returns a client of a server that answers every request with
// reply: the replies the real server never sends.
func fakeStore(t *testing.T, reply func(w http.ResponseWriter)) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { reply(w) }))
	t.Cleanup(ts.Close)
	return NewClient(ts.Listener.Addr().String(), nil)
}

func TestPutGetRoundTrip(t *testing.T) {
	c, _ := startStore(t)
	data := []byte("timestep payload")
	if err := c.Put("sim", "ts0.vnd", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("sim", "ts0.vnd")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("got %q", got)
	}
}

func TestPutOverwrites(t *testing.T) {
	c, _ := startStore(t)
	if err := c.Put("b", "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("b", "k", []byte("v2-longer")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("b", "k")
	if err != nil || string(got) != "v2-longer" {
		t.Errorf("got %q, %v", got, err)
	}
}

func TestGetMissing(t *testing.T) {
	c, _ := startStore(t)
	if _, err := c.Get("b", "missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	if _, _, err := c.Stat("b", "missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Stat err = %v, want ErrNotFound", err)
	}
}

func TestNestedKeys(t *testing.T) {
	c, _ := startStore(t)
	if err := c.Put("sim", "run1/ts0/data.vnd", []byte("nested")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("sim", "run1/ts0/data.vnd")
	if err != nil || string(got) != "nested" {
		t.Errorf("got %q, %v", got, err)
	}
}

func TestStat(t *testing.T) {
	root := t.TempDir()
	c, _ := startStoreAt(t, root)
	data := make([]byte, 12345)
	if err := c.Put("b", "k", data); err != nil {
		t.Fatal(err)
	}
	size, mtime, err := c.Stat("b", "k")
	if err != nil || size != 12345 {
		t.Errorf("Stat = %d, %v", size, err)
	}
	fi, err := os.Stat(filepath.Join(root, "b", "k"))
	if err != nil {
		t.Fatal(err)
	}
	if !mtime.Equal(fi.ModTime()) {
		t.Errorf("Stat mtime = %v, stored file's is %v", mtime, fi.ModTime())
	}
}

// TestStatReplies pins what Stat makes of replies the real server does
// not send: a store too old to stamp versions yields the zero time (which
// core.Server refuses to cache over), a mangled stamp or a reply without
// a length is an error naming the object.
func TestStatReplies(t *testing.T) {
	for _, tc := range []struct {
		name    string
		reply   func(w http.ResponseWriter)
		wantErr string
	}{
		{"no stamp", func(w http.ResponseWriter) { w.Header().Set("Content-Length", "7") }, ""},
		{"bad stamp", func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", "7")
			w.Header().Set(mtimeHeader, "yesterday")
		}, "b/k: bad " + mtimeHeader},
		{"no length", func(w http.ResponseWriter) { w.(http.Flusher).Flush() }, "b/k: reply has no Content-Length"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			size, mtime, err := fakeStore(t, tc.reply).Stat("b", "k")
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil || size != 7 || !mtime.IsZero() {
				t.Errorf("Stat = %d, %v, %v; want 7, the zero time, nil", size, mtime, err)
			}
		})
	}
}

// TestPutOverwriteStampsStrictlyLater: file clocks tick in milliseconds,
// so back-to-back PUTs land on one mtime unless the server pushes each
// replacement past what it replaced — also when the replaced object's
// stamp is ahead of the clock, and when PUTs of one key race.
func TestPutOverwriteStampsStrictlyLater(t *testing.T) {
	root := t.TempDir()
	c, _ := startStoreAt(t, root)
	stamp := func() time.Time {
		t.Helper()
		_, mtime, err := c.Stat("b", "k")
		if err != nil {
			t.Fatal(err)
		}
		return mtime
	}
	if err := c.Put("b", "k", []byte("v0")); err != nil {
		t.Fatal(err)
	}
	last := stamp()
	for i := 0; i < 50; i++ {
		if err := c.Put("b", "k", []byte("vN")); err != nil {
			t.Fatal(err)
		}
		got := stamp()
		if !got.After(last) {
			t.Fatalf("PUT %d stamped %v, not after the %v it replaced", i, got, last)
		}
		last = got
	}

	ahead := time.Now().Add(time.Hour)
	if err := os.Chtimes(filepath.Join(root, "b", "k"), ahead, ahead); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("b", "k", []byte("vN")); err != nil {
		t.Fatal(err)
	}
	if last = stamp(); !last.After(ahead) {
		t.Errorf("PUT over an object stamped %v got %v", ahead, last)
	}

	errs := make(chan error, 4)
	for w := 0; w < cap(errs); w++ {
		go func() {
			var err error
			for i := 0; i < 20 && err == nil; i++ {
				err = c.Put("b", "k", []byte("vN"))
			}
			errs <- err
		}()
	}
	for w := 0; w < cap(errs); w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if got := stamp(); !got.After(last) {
		t.Errorf("racing PUTs left stamp %v, not after %v", got, last)
	}
}

func TestGetRange(t *testing.T) {
	c, _ := startStore(t)
	data := make([]byte, 10_000)
	rand.New(rand.NewSource(1)).Read(data)
	if err := c.Put("b", "k", data); err != nil {
		t.Fatal(err)
	}
	cases := []struct{ off, n int64 }{
		{0, 1}, {0, 100}, {5000, 2000}, {9999, 1}, {0, 10_000},
	}
	for _, cse := range cases {
		got, err := c.GetRange("b", "k", cse.off, cse.n)
		if err != nil {
			t.Fatalf("range %d+%d: %v", cse.off, cse.n, err)
		}
		if !bytes.Equal(got, data[cse.off:cse.off+cse.n]) {
			t.Errorf("range %d+%d mismatch", cse.off, cse.n)
		}
	}
	if got, err := c.GetRange("b", "k", 0, 0); err != nil || len(got) != 0 {
		t.Errorf("zero range = %v, %v", got, err)
	}
	// The one ranged read fills exactly the caller's slice and nothing
	// around it.
	buf := bytes.Repeat([]byte{0xEE}, 3000)
	if n, err := c.ReadRange("b", "k", buf[500:2500], 5000); n != 2000 || err != nil {
		t.Fatalf("ReadRange = %d, %v", n, err)
	}
	want := bytes.Repeat([]byte{0xEE}, 3000)
	copy(want[500:2500], data[5000:7000])
	if !bytes.Equal(buf, want) {
		t.Error("ReadRange wrote outside its slice or filled it wrong")
	}
	// An object that ends inside the range is a short read, and so is
	// GetRange's: its buffer is exactly n or nothing.
	if n, err := c.ReadRange("b", "k", buf, 9000); n != 1000 || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("ReadRange past the end = %d, %v; want 1000, ErrUnexpectedEOF", n, err)
	}
	if got, err := c.GetRange("b", "k", 9000, 3000); got != nil || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("GetRange past the end = %d bytes, %v; want none, ErrUnexpectedEOF", len(got), err)
	}
	if got, err := c.Get("b", "k"); err != nil || !bytes.Equal(got, data) || cap(got) != len(data) {
		t.Errorf("Get = %d bytes (cap %d), %v; want exactly %d", len(got), cap(got), err, len(data))
	}
}

// TestReadRangeBadReplies: a body that ends early — however the store
// framed it, even with nothing sent — is io.ErrUnexpectedEOF, which is
// what core.corruptionError classifies as a truncated object; a store
// that ignores the Range header is an error, not a silent whole-object
// read.
func TestReadRangeBadReplies(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply func(w http.ResponseWriter)
		want  error // nil: the ignored-range error
	}{
		{"short of its Content-Length", func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", "100")
			w.WriteHeader(http.StatusPartialContent)
			w.Write(make([]byte, 40))
		}, io.ErrUnexpectedEOF},
		{"short, no length", func(w http.ResponseWriter) {
			w.WriteHeader(http.StatusPartialContent)
			w.Write(make([]byte, 40))
			w.(http.Flusher).Flush()
		}, io.ErrUnexpectedEOF},
		{"empty, no length", func(w http.ResponseWriter) {
			w.WriteHeader(http.StatusPartialContent)
			w.(http.Flusher).Flush()
		}, io.ErrUnexpectedEOF},
		{"200 to a range request", func(w http.ResponseWriter) { w.Write(make([]byte, 100)) }, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := fakeStore(t, tc.reply)
			_, err := c.ReadRange("b", "k", make([]byte, 100), 0)
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("ReadRange: err = %v, want %v", err, tc.want)
			}
			if tc.want == nil && (err == nil || !strings.Contains(err.Error(), "ignored range")) {
				t.Errorf("ReadRange: err = %v, want the ignored-range error", err)
			}
			if data, err2 := c.GetRange("b", "k", 0, 100); data != nil || err2 == nil {
				t.Errorf("GetRange = %d bytes, %v; want the same failure", len(data), err2)
			}
		})
	}
}

func TestList(t *testing.T) {
	c, _ := startStore(t)
	keys := []string{"ts0/v02", "ts0/v03", "ts1/v02", "other"}
	for _, k := range keys {
		if err := c.Put("sim", k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	all, err := c.List("sim", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("List all = %d entries", len(all))
	}
	if all[0].Key != "other" {
		t.Errorf("listing not sorted: %v", all)
	}
	ts0, err := c.List("sim", "ts0/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts0) != 2 || ts0[0].Key != "ts0/v02" || ts0[0].Size != int64(len("ts0/v02")) {
		t.Errorf("prefix listing = %+v", ts0)
	}
	if _, err := c.List("nope", ""); !errors.Is(err, ErrNotFound) {
		t.Errorf("listing missing bucket: err = %v, want ErrNotFound", err)
	}
}

func TestDelete(t *testing.T) {
	c, _ := startStore(t)
	if err := c.Put("b", "k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("b", "k"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("b", "k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("after delete: %v", err)
	}
	if err := c.Delete("b", "k"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
}

func TestPathTraversalRejected(t *testing.T) {
	root := t.TempDir()
	c, s := startStoreAt(t, root)
	// Plant a file outside the bucket tree.
	secret := filepath.Join(filepath.Dir(root), "secret")
	if err := os.WriteFile(secret, []byte("s3cret"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"../secret", "a/../../secret", "..", "./x"} {
		if _, err := c.Get("b", key); err == nil {
			t.Errorf("traversal key %q accepted", key)
		}
		if err := c.Put("b", key, []byte("x")); err == nil {
			t.Errorf("traversal put %q accepted", key)
		}
	}
	// Raw request bypassing client-side escaping.
	req := httptest.NewRequest(http.MethodGet, "/b/%2e%2e/secret", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code == http.StatusOK && bytes.Contains(rec.Body.Bytes(), []byte("s3cret")) {
		t.Error("raw traversal leaked file contents")
	}
}

func TestPutFrom(t *testing.T) {
	c, _ := startStore(t)
	data := bytes.Repeat([]byte("stream"), 1000)
	if err := c.PutFrom("b", "k", bytes.NewReader(data), int64(len(data))); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("b", "k")
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("PutFrom round trip failed: %v", err)
	}
}

func TestShapedTransferCountsBytes(t *testing.T) {
	// Route client traffic through a shaped link, as the harness does, and
	// confirm both pacing and byte counting.
	s, err := NewServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Writes are paced on whichever endpoint is wrapped, so both the
	// server listener and the client dialer go through the link: response
	// bytes are paced at the server, request bytes at the client.
	link := netsim.NewLink(100*netsim.Mbps, 0)
	addr, shutdown, err := s.ListenAndServe("127.0.0.1:0", link.Listener)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	c := NewClient(addr, link.Dial)
	payload := make([]byte, 1<<20)
	if err := c.Put("b", "big", payload); err != nil {
		t.Fatal(err)
	}
	recv := telemetry.Default().Counter("netsim.bytes.recv")
	recv0 := recv.Value()
	start := time.Now()
	got, err := c.Get("b", "big")
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if len(got) != len(payload) {
		t.Fatalf("got %d bytes", len(got))
	}
	if got := recv.Value() - recv0; got < int64(len(payload)) {
		t.Errorf("link counted %d bytes down", got)
	}
	ideal := link.TransferTime(int64(len(payload)))
	if elapsed < ideal*7/10 {
		t.Errorf("shaped GET took %v, want >= ~%v", elapsed, ideal)
	}
}

func TestParseRange(t *testing.T) {
	off, n, err := parseRange("bytes=10-19", 100)
	if err != nil || off != 10 || n != 10 {
		t.Errorf("parseRange = %d,%d,%v", off, n, err)
	}
	for _, bad := range []string{"10-19", "bytes=a-b", "bytes=20-10", "bytes=0-100"} {
		if _, _, err := parseRange(bad, 100); err == nil {
			t.Errorf("parseRange(%q) accepted", bad)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, s := startStore(t)
	req := httptest.NewRequest(http.MethodPost, "/b/k", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d", rec.Code)
	}
}

func TestMissingBucketOrKey(t *testing.T) {
	_, s := startStore(t)
	for _, path := range []string{"/", "/bucketonly", "/bucket/"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s status = %d, want 400", path, rec.Code)
		}
	}
}

func TestListSkipsUploadTemp(t *testing.T) {
	root := t.TempDir()
	c, _ := startStoreAt(t, root)
	if err := c.Put("b", "real", []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Simulate a leftover temp upload file.
	if err := os.WriteFile(filepath.Join(root, "b", ".upload-123"), []byte("t"), 0o644); err != nil {
		t.Fatal(err)
	}
	objs, err := c.List("b", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 || objs[0].Key != "real" {
		t.Errorf("listing = %v", objs)
	}
}

func TestInvalidBucketNames(t *testing.T) {
	c, _ := startStore(t)
	if err := c.Put("..", "k", []byte("x")); err == nil {
		t.Error("bucket .. accepted")
	}
}

func TestNewServerBadRoot(t *testing.T) {
	// A file where the root dir should be.
	dir := t.TempDir()
	file := filepath.Join(dir, "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(filepath.Join(file, "sub")); err == nil {
		t.Error("root under a file accepted")
	}
}

func TestPutInvalidKeyDirect(t *testing.T) {
	_, s := startStore(t)
	req := httptest.NewRequest(http.MethodPut, "/b/%2e%2e/esc", strings.NewReader("x"))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("traversal PUT status = %d", rec.Code)
	}
	req = httptest.NewRequest(http.MethodDelete, "/b/%2e%2e/esc", nil)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("traversal DELETE status = %d", rec.Code)
	}
}

// TestListBucketSemantics pins the two list outcomes apart: a bucket
// that was never created is a 404 (NoSuchBucket), while an existing
// bucket whose listing matches nothing is a 200 with an empty JSON
// array.
func TestListBucketSemantics(t *testing.T) {
	s, err := NewServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/ghost?list=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing bucket list status = %d, want 404", resp.StatusCode)
	}

	c := NewClient(ts.Listener.Addr().String(), nil)
	if err := c.Put("real", "k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/real?list=1&prefix=zzz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("empty listing status = %d, want 200", resp.StatusCode)
	}
	if got := strings.TrimSpace(string(body)); got != "[]" {
		t.Errorf("empty listing body = %q, want []", got)
	}
}

// TestRangeStatusCodes pins the HTTP-level range semantics the s3fs
// ReaderAt depends on: partial reads are 206 with a Content-Range, and
// a range beyond the object is 416.
func TestRangeStatusCodes(t *testing.T) {
	s, err := NewServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := NewClient(ts.Listener.Addr().String(), nil)
	data := []byte("0123456789abcdef")
	if err := c.Put("b", "k", data); err != nil {
		t.Fatal(err)
	}

	get := func(rangeHeader string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/b/k", nil)
		if err != nil {
			t.Fatal(err)
		}
		if rangeHeader != "" {
			req.Header.Set("Range", rangeHeader)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := get("bytes=4-7")
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Errorf("partial status = %d, want 206", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Range"); got != "bytes 4-7/16" {
		t.Errorf("Content-Range = %q, want bytes 4-7/16", got)
	}
	if string(body) != "4567" {
		t.Errorf("partial body = %q", body)
	}

	resp = get("bytes=100-200")
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Errorf("unsatisfiable status = %d, want 416", resp.StatusCode)
	}

	resp = get("")
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != len(data) {
		t.Errorf("full GET = %d, %d bytes", resp.StatusCode, len(body))
	}
}

// TestHeadContentLength pins that HEAD reports the object's size without
// a body — what Client.Stat and the s3fs mount use to size files.
func TestHeadContentLength(t *testing.T) {
	s, err := NewServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := NewClient(ts.Listener.Addr().String(), nil)
	data := make([]byte, 12345)
	if err := c.Put("b", "k", data); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Head(ts.URL + "/b/k")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("HEAD status = %d", resp.StatusCode)
	}
	if resp.ContentLength != int64(len(data)) {
		t.Errorf("Content-Length = %d, want %d", resp.ContentLength, len(data))
	}
	if len(body) != 0 {
		t.Errorf("HEAD body = %d bytes, want none", len(body))
	}

	resp, err = http.Head(ts.URL + "/b/missing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("HEAD missing status = %d, want 404", resp.StatusCode)
	}
}
