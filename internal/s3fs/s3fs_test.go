package s3fs

import (
	"bytes"
	"io"
	"io/fs"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sort"
	"testing"

	"vizndp/internal/compress"
	"vizndp/internal/grid"
	"vizndp/internal/objstore"
	"vizndp/internal/vtkio"
)

func startFS(t *testing.T) (*FS, *objstore.Client) {
	t.Helper()
	s, err := objstore.NewServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	c := objstore.NewClient(ts.Listener.Addr().String(), nil)
	return New(c, "sim"), c
}

func TestReadWholeFile(t *testing.T) {
	fsys, c := startFS(t)
	data := make([]byte, 3_000_000) // > 2 read-ahead windows
	rand.New(rand.NewSource(1)).Read(data)
	if err := c.Put("sim", "big.bin", data); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.Open("big.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("sequential read mismatch")
	}
}

func TestSmallChunkReads(t *testing.T) {
	fsys, c := startFS(t)
	fsys.ChunkSize = 64
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i)
	}
	if err := c.Put("sim", "f", data); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := io.ReadAll(f)
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("chunked read failed: %v", err)
	}
}

func TestStat(t *testing.T) {
	fsys, c := startFS(t)
	if err := c.Put("sim", "dir/name.vnd", make([]byte, 77)); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.Open("dir/name.vnd")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if fi.Name() != "name.vnd" || fi.Size() != 77 || fi.IsDir() {
		t.Errorf("Stat = %v/%d/%v", fi.Name(), fi.Size(), fi.IsDir())
	}
}

func TestOpenMissing(t *testing.T) {
	fsys, _ := startFS(t)
	if _, err := fsys.Open("nope"); err == nil {
		t.Error("missing object opened")
	}
	var perr *fs.PathError
	_, err := fsys.Open("nope")
	if !asPathError(err, &perr) {
		t.Errorf("err type = %T", err)
	}
}

func asPathError(err error, out **fs.PathError) bool {
	pe, ok := err.(*fs.PathError)
	if ok {
		*out = pe
	}
	return ok
}

func TestOpenInvalidPath(t *testing.T) {
	fsys, _ := startFS(t)
	for _, name := range []string{"/abs", "../up", ".", ""} {
		if _, err := fsys.Open(name); err == nil {
			t.Errorf("invalid path %q opened", name)
		}
	}
}

func TestSeekAndReadAt(t *testing.T) {
	fsys, c := startFS(t)
	data := make([]byte, 10_000)
	rand.New(rand.NewSource(3)).Read(data)
	if err := c.Put("sim", "f", data); err != nil {
		t.Fatal(err)
	}
	file, err := fsys.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	f := file.(*File)

	if pos, err := f.Seek(5000, io.SeekStart); err != nil || pos != 5000 {
		t.Fatalf("Seek = %d, %v", pos, err)
	}
	buf := make([]byte, 100)
	if _, err := io.ReadFull(f, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[5000:5100]) {
		t.Error("read after seek mismatch")
	}

	if pos, err := f.Seek(-100, io.SeekEnd); err != nil || pos != 9900 {
		t.Fatalf("SeekEnd = %d, %v", pos, err)
	}
	if pos, err := f.Seek(10, io.SeekCurrent); err != nil || pos != 9910 {
		t.Fatalf("SeekCurrent = %d, %v", pos, err)
	}
	if _, err := f.Seek(-1, io.SeekStart); err == nil {
		t.Error("negative seek accepted")
	}
	if _, err := f.Seek(0, 99); err == nil {
		t.Error("bad whence accepted")
	}

	if _, err := f.ReadAt(buf, 2000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[2000:2100]) {
		t.Error("ReadAt mismatch")
	}
	n, err := f.ReadAt(buf, 9950)
	if n != 50 || err != io.EOF {
		t.Errorf("ReadAt at EOF = %d, %v", n, err)
	}
}

func TestReadAfterClose(t *testing.T) {
	fsys, c := startFS(t)
	if err := c.Put("sim", "f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	f, _ := fsys.Open("f")
	f.Close()
	buf := make([]byte, 1)
	if _, err := f.Read(buf); err != fs.ErrClosed {
		t.Errorf("Read after close = %v", err)
	}
	if _, err := f.Stat(); err != fs.ErrClosed {
		t.Errorf("Stat after close = %v", err)
	}
}

func TestReadDir(t *testing.T) {
	fsys, c := startFS(t)
	for _, k := range []string{"ts0/v02.vnd", "ts0/v03.vnd", "ts1/v02.vnd", "top.vnd"} {
		if err := c.Put("sim", k, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := fsys.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	dirs := map[string]bool{}
	for i, e := range entries {
		names[i] = e.Name()
		dirs[e.Name()] = e.IsDir()
	}
	sort.Strings(names)
	want := []string{"top.vnd", "ts0", "ts1"}
	if len(names) != 3 || names[0] != want[0] || names[1] != want[1] || names[2] != want[2] {
		t.Fatalf("root entries = %v", names)
	}
	if !dirs["ts0"] || dirs["top.vnd"] {
		t.Errorf("dir flags wrong: %v", dirs)
	}

	sub, err := fsys.ReadDir("ts0")
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 2 {
		t.Errorf("ts0 entries = %d", len(sub))
	}
}

func TestVTKIOOverS3FS(t *testing.T) {
	// The baseline data path: a dataset stored as an object, opened
	// through the filesystem layer, selectively read by vtkio.
	fsys, c := startFS(t)

	g := grid.NewUniform(16, 16, 16)
	ds := grid.NewDataset(g)
	rng := rand.New(rand.NewSource(5))
	for _, name := range []string{"v02", "v03"} {
		f := grid.NewField(name, g.NumPoints())
		for i := range f.Values {
			f.Values[i] = rng.Float32()
		}
		ds.MustAddField(f)
	}
	var buf bytes.Buffer
	if err := vtkio.Write(&buf, ds, vtkio.WriteOptions{Codec: compress.LZ4}); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("sim", "ts0.vnd", buf.Bytes()); err != nil {
		t.Fatal(err)
	}

	file, err := fsys.Open("ts0.vnd")
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	r, err := vtkio.OpenReader(file.(*File))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadArray("v03")
	if err != nil {
		t.Fatal(err)
	}
	want := ds.Field("v03").Values
	for i := range want {
		if got.Values[i] != want[i] {
			t.Fatalf("value %d mismatch", i)
		}
	}
}

func TestFileInfoAccessors(t *testing.T) {
	fsys, c := startFS(t)
	if err := c.Put("sim", "f", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.(*File).Size() != 3 {
		t.Error("Size wrong")
	}
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode() != 0o444 || fi.IsDir() || fi.Sys() != nil {
		t.Error("fileInfo accessors wrong")
	}
	entries, err := fsys.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == "f" {
			if e.IsDir() || e.Type() != 0 {
				t.Error("entry flags wrong")
			}
			info, err := e.Info()
			if err != nil || info.Size() != 3 {
				t.Errorf("entry info = %v, %v", info, err)
			}
		}
	}
	if _, err := fsys.ReadDir("../bad"); err == nil {
		t.Error("invalid readdir path accepted")
	}
}

func TestStatFS(t *testing.T) {
	fsys, c := startFS(t)
	if err := c.Put("sim", "dir/obj.bin", make([]byte, 1234)); err != nil {
		t.Fatal(err)
	}
	info, err := fs.Stat(fsys, "dir/obj.bin")
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 1234 || info.Name() != "obj.bin" || info.IsDir() {
		t.Errorf("stat = %v/%d/%v", info.Name(), info.Size(), info.IsDir())
	}
	if _, err := fs.Stat(fsys, "missing"); err == nil {
		t.Error("stat of missing object succeeded")
	}
	if _, err := fsys.Stat("../bad"); err == nil {
		t.Error("stat of invalid path succeeded")
	}
}

// TestVersionModTime: the store's stamp for an object is its ModTime
// whichever way s3fs is asked — FS.Stat, File.Stat, a directory entry —
// and two back-to-back same-size PUTs move it strictly forward, which is
// what lets the NDP server's caches key on (ModTime, Size) alone.
func TestVersionModTime(t *testing.T) {
	fsys, c := startFS(t)
	modTimes := func() (viaStat, viaFile, viaDir int64) {
		t.Helper()
		info, err := fs.Stat(fsys, "run/f")
		if err != nil {
			t.Fatal(err)
		}
		f, err := fsys.Open("run/f")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		finfo, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		entries, err := fsys.ReadDir("run")
		if err != nil || len(entries) != 1 {
			t.Fatalf("ReadDir = %v, %v", entries, err)
		}
		dinfo, err := entries[0].Info()
		if err != nil {
			t.Fatal(err)
		}
		return info.ModTime().UnixNano(), finfo.ModTime().UnixNano(), dinfo.ModTime().UnixNano()
	}
	var last int64
	for i := 0; i < 20; i++ {
		if err := c.Put("sim", "run/f", []byte{byte(i), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		viaStat, viaFile, viaDir := modTimes()
		if viaStat == 0 || viaFile != viaStat || viaDir != viaStat {
			t.Fatalf("PUT %d: ModTime is %d by FS.Stat, %d by File.Stat, %d by ReadDir", i, viaStat, viaFile, viaDir)
		}
		if viaStat <= last {
			t.Fatalf("PUT %d: ModTime %d is not after the %d it replaced", i, viaStat, last)
		}
		last = viaStat
	}
}

// TestReadAtAllocatesNoCopy: an 8 MiB ReadAt lands in the caller's
// buffer. What it may allocate besides — this process also runs the
// store — is request bookkeeping and copy buffers, far below one more
// copy of the data.
func TestReadAtAllocatesNoCopy(t *testing.T) {
	fsys, c := startFS(t)
	data := make([]byte, 8<<20)
	rand.New(rand.NewSource(21)).Read(data)
	if err := c.Put("sim", "big", data); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.Open("big")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p := make([]byte, len(data))
	least := uint64(1 << 62)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ { // the first pass also dials
		clear(p)
		runtime.ReadMemStats(&before)
		n, err := f.(*File).ReadAt(p, 0)
		runtime.ReadMemStats(&after)
		if n != len(p) || err != nil {
			t.Fatalf("ReadAt = %d, %v", n, err)
		}
		if !bytes.Equal(p, data) {
			t.Fatal("ReadAt filled the buffer wrong")
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 64<<10 {
		t.Errorf("an 8 MiB ReadAt allocated %d bytes beyond the caller's buffer, want < 64 KiB", least)
	}
}
