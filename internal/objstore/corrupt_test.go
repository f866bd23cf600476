package objstore

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"testing"
	"testing/fstest"
)

func corruptTestFS(size int) fstest.MapFS {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 131)
	}
	return fstest.MapFS{
		"bucket/ts0/brick0000.vnd": {Data: data},
		"bucket/manifest.json":     {Data: []byte(`{"magic":"vnd-bricks"}`)},
	}
}

func readAt(t *testing.T, fsys fs.FS, name string, p []byte, off int64) (int, error) {
	t.Helper()
	f, err := fsys.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ra, ok := f.(io.ReaderAt)
	if !ok {
		t.Fatalf("%s does not support ReadAt", name)
	}
	return ra.ReadAt(p, off)
}

func TestCorruptFSDeterministic(t *testing.T) {
	const size = 64 << 10
	runs := make([][]byte, 2)
	errsEqual := true
	var firstErrs []error
	for run := range runs {
		cfs := NewCorruptFS(corruptTestFS(size), CorruptOptions{Seed: 42, Every: 2})
		var got []byte
		var errs []error
		for i := 0; i < 12; i++ {
			p := make([]byte, 8192)
			n, err := readAt(t, cfs, "bucket/ts0/brick0000.vnd", p, int64(i%4)*8192)
			got = append(got, p[:n]...)
			errs = append(errs, err)
		}
		runs[run] = got
		if run == 0 {
			firstErrs = errs
		} else {
			for i := range errs {
				if !errors.Is(errs[i], firstErrs[i]) && !errors.Is(firstErrs[i], errs[i]) {
					errsEqual = false
				}
			}
		}
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Error("same seed produced different corrupted bytes")
	}
	if !errsEqual {
		t.Error("same seed produced different error sequences")
	}
}

func TestCorruptFSSeedChangesInjection(t *testing.T) {
	const size = 64 << 10
	out := make([][]byte, 2)
	for i, seed := range []uint64{1, 2} {
		cfs := NewCorruptFS(corruptTestFS(size), CorruptOptions{Seed: seed, Every: 1})
		p := make([]byte, size)
		n, _ := readAt(t, cfs, "bucket/ts0/brick0000.vnd", p, 0)
		out[i] = p[:n]
	}
	if bytes.Equal(out[0], out[1]) {
		t.Error("different seeds produced identical corruption")
	}
}

// corruptCounts is a snapshot of the process-wide objstore.corrupt.*
// counters. The injector's tests run one at a time, so what one wrapper
// did is the change between two snapshots taken around its reads.
type corruptCounts struct {
	Reads, Injected, Bitflips, ZeroPages, Truncations int64
}

func snapCorrupt() corruptCounts {
	return corruptCounts{mCorruptReads.Value(), mCorruptInjected.Value(),
		mCorruptBitflips.Value(), mCorruptZeroPages.Value(), mCorruptTruncations.Value()}
}

// since is what the counters did after b was taken.
func (a corruptCounts) since(b corruptCounts) corruptCounts {
	return corruptCounts{a.Reads - b.Reads, a.Injected - b.Injected,
		a.Bitflips - b.Bitflips, a.ZeroPages - b.ZeroPages, a.Truncations - b.Truncations}
}

func TestCorruptFSEveryNth(t *testing.T) {
	cfs := NewCorruptFS(corruptTestFS(64<<10), CorruptOptions{Seed: 7, Every: 3})
	before := snapCorrupt()
	for i := 0; i < 12; i++ {
		p := make([]byte, 8192)
		readAt(t, cfs, "bucket/ts0/brick0000.vnd", p, 0)
	}
	st := snapCorrupt().since(before)
	if st.Reads != 12 {
		t.Fatalf("eligible reads = %d, want 12", st.Reads)
	}
	if st.Injected != 4 {
		t.Fatalf("injected = %d over 12 reads at Every=3, want 4", st.Injected)
	}
	if got := st.Bitflips + st.ZeroPages + st.Truncations; got != st.Injected {
		t.Fatalf("class counters sum to %d, want %d", got, st.Injected)
	}
}

func TestCorruptFSAllClassesFire(t *testing.T) {
	cfs := NewCorruptFS(corruptTestFS(64<<10), CorruptOptions{Seed: 9, Every: 1})
	before := snapCorrupt()
	for i := 0; i < 9; i++ {
		p := make([]byte, 8192)
		readAt(t, cfs, "bucket/ts0/brick0000.vnd", p, 0)
	}
	st := snapCorrupt().since(before)
	if st.Bitflips == 0 || st.ZeroPages == 0 || st.Truncations == 0 {
		t.Fatalf("class rotation incomplete: %+v", st)
	}
	// Truncations must surface as short reads with ErrUnexpectedEOF so
	// io.ReadFull-style callers fail loudly rather than seeing zeros.
	found := false
	cfs2 := NewCorruptFS(corruptTestFS(64<<10), CorruptOptions{Seed: 9, Every: 1})
	for i := 0; i < 9 && !found; i++ {
		p := make([]byte, 8192)
		n, err := readAt(t, cfs2, "bucket/ts0/brick0000.vnd", p, 0)
		if errors.Is(err, io.ErrUnexpectedEOF) {
			if n >= 8192 || n <= 0 {
				t.Fatalf("truncated read returned n=%d", n)
			}
			found = true
		}
	}
	if !found {
		t.Error("no truncation surfaced as ErrUnexpectedEOF")
	}
}

func TestCorruptFSMinReadSizeExemptsFramingReads(t *testing.T) {
	base := corruptTestFS(64 << 10)
	cfs := NewCorruptFS(base, CorruptOptions{Seed: 3, Every: 1}) // default MinReadSize 4 KiB
	want, err := fs.ReadFile(base, "bucket/ts0/brick0000.vnd")
	if err != nil {
		t.Fatal(err)
	}
	before := snapCorrupt()
	for i := 0; i < 20; i++ {
		p := make([]byte, 512)
		off := int64(i) * 512
		n, err := readAt(t, cfs, "bucket/ts0/brick0000.vnd", p, off)
		if err != nil {
			t.Fatalf("small read %d: %v", i, err)
		}
		if !bytes.Equal(p[:n], want[off:off+int64(n)]) {
			t.Fatalf("small read %d was corrupted", i)
		}
	}
	if st := snapCorrupt().since(before); st.Reads != 0 || st.Injected != 0 {
		t.Fatalf("small reads counted as eligible: %+v", st)
	}
}

func TestCorruptFSSequentialReadAndReadFileClean(t *testing.T) {
	base := corruptTestFS(64 << 10)
	cfs := NewCorruptFS(base, CorruptOptions{Seed: 3, Every: 1})
	want, _ := fs.ReadFile(base, "bucket/ts0/brick0000.vnd")
	got, err := fs.ReadFile(cfs, "bucket/ts0/brick0000.vnd")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("fs.ReadFile through CorruptFS was corrupted; only ReadAt may be damaged")
	}
}

func TestCorruptFSPassthrough(t *testing.T) {
	cfs := NewCorruptFS(corruptTestFS(4096), CorruptOptions{Seed: 1, Every: 1})
	ents, err := cfs.ReadDir("bucket")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		t.Fatalf("ReadDir returned %d entries, want 2", len(ents))
	}
}
