// Package s3fs presents an object-store bucket as a read-only filesystem,
// standing in for the FUSE-based s3fs tool the paper uses to mount MinIO
// buckets on the client (baseline) or storage (NDP) node.
//
// Files support sequential reads with read-ahead buffering — mirroring how
// a FUSE mount turns stream reads into ranged object GETs — as well as
// random access through io.ReaderAt and io.Seeker, which the vtkio reader
// uses to fetch only selected arrays.
package s3fs

import (
	"fmt"
	"io"
	"io/fs"
	"path"
	"strings"
	"time"

	"vizndp/internal/objstore"
)

// DefaultChunkSize is the read-ahead window for sequential reads.
const DefaultChunkSize = 1 << 20

// FS is a read-only fs.FS over one bucket.
type FS struct {
	client *objstore.Client
	bucket string
	// ChunkSize is the read-ahead window; DefaultChunkSize if 0.
	ChunkSize int
}

// New returns a filesystem view of bucket served by client.
func New(client *objstore.Client, bucket string) *FS {
	return &FS{client: client, bucket: bucket}
}

// Open opens the named object. The returned file is an fs.File that also
// implements io.ReaderAt and io.Seeker.
func (f *FS) Open(name string) (fs.File, error) {
	info, err := f.stat("open", name)
	if err != nil {
		return nil, err
	}
	chunk := f.ChunkSize
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	return &File{client: f.client, bucket: f.bucket, key: name, info: info, chunk: chunk}, nil
}

// Stat implements fs.StatFS with a single object stat (one HEAD), so
// callers probing file versions (e.g. the NDP server's array-cache keys)
// avoid constructing a file handle. ModTime is the store's version stamp
// for the object, which every overwrite moves forward, so (ModTime,
// Size) identifies the object's content as it does on a local disk.
func (f *FS) Stat(name string) (fs.FileInfo, error) {
	info, err := f.stat("stat", name)
	if err != nil {
		return nil, err
	}
	return info, nil
}

// stat is the one object stat behind Open and Stat.
func (f *FS) stat(op, name string) (fileInfo, error) {
	if !fs.ValidPath(name) || name == "." {
		return fileInfo{}, &fs.PathError{Op: op, Path: name, Err: fs.ErrInvalid}
	}
	size, mtime, err := f.client.Stat(f.bucket, name)
	if err != nil {
		return fileInfo{}, &fs.PathError{Op: op, Path: name, Err: err}
	}
	return fileInfo{name: path.Base(name), size: size, mtime: mtime}, nil
}

var _ fs.StatFS = (*FS)(nil)

// ReadDir lists the objects under the given prefix directory, satisfying
// the common pattern of scanning a timestep directory.
func (f *FS) ReadDir(name string) ([]fs.DirEntry, error) {
	prefix := ""
	if name != "." {
		if !fs.ValidPath(name) {
			return nil, &fs.PathError{Op: "readdir", Path: name, Err: fs.ErrInvalid}
		}
		prefix = name + "/"
	}
	objs, err := f.client.List(f.bucket, prefix)
	if err != nil {
		return nil, &fs.PathError{Op: "readdir", Path: name, Err: err}
	}
	entries := make([]fs.DirEntry, 0, len(objs))
	seen := make(map[string]bool)
	for _, o := range objs {
		first, _, isDir := strings.Cut(o.Key[len(prefix):], "/")
		if seen[first] {
			continue
		}
		seen[first] = true
		entries = append(entries, dirEntry{
			name:  first,
			size:  o.Size,
			mtime: time.Unix(0, o.MTimeNs),
			isDir: isDir,
		})
	}
	return entries, nil
}

// File is an open object handle.
type File struct {
	client *objstore.Client
	bucket string
	key    string
	info   fileInfo // as of Open
	chunk  int

	offset int64  // current Read/Seek position
	buf    []byte // read-ahead window
	bufOff int64  // object offset of buf[0]
	closed bool
}

var (
	_ fs.File     = (*File)(nil)
	_ io.ReaderAt = (*File)(nil)
	_ io.Seeker   = (*File)(nil)
)

// Stat implements fs.File.
func (f *File) Stat() (fs.FileInfo, error) {
	if f.closed {
		return nil, fs.ErrClosed
	}
	return f.info, nil
}

// Size returns the object size in bytes.
func (f *File) Size() int64 { return f.info.size }

// Read implements sequential reads with read-ahead: a miss fetches the
// next ChunkSize window in one ranged GET.
func (f *File) Read(p []byte) (int, error) {
	if f.closed {
		return 0, fs.ErrClosed
	}
	if f.offset >= f.info.size {
		return 0, io.EOF
	}
	// Serve from the buffered window when possible.
	if f.offset >= f.bufOff && f.offset < f.bufOff+int64(len(f.buf)) {
		n := copy(p, f.buf[f.offset-f.bufOff:])
		f.offset += int64(n)
		return n, nil
	}
	// Miss: fetch a fresh window at the current offset.
	want := int64(f.chunk)
	if f.offset+want > f.info.size {
		want = f.info.size - f.offset
	}
	data, err := f.client.GetRange(f.bucket, f.key, f.offset, want)
	if err != nil {
		return 0, fmt.Errorf("s3fs: read %s at %d: %w", f.key, f.offset, err)
	}
	f.buf = data
	f.bufOff = f.offset
	n := copy(p, data)
	f.offset += int64(n)
	return n, nil
}

// ReadAt implements io.ReaderAt with a direct ranged GET whose body
// lands in p, bypassing the read-ahead buffer.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if f.closed {
		return 0, fs.ErrClosed
	}
	if off >= f.info.size {
		return 0, io.EOF
	}
	short := off+int64(len(p)) > f.info.size
	if short {
		p = p[:f.info.size-off]
	}
	n, err := f.client.ReadRange(f.bucket, f.key, p, off)
	if err == nil && short {
		err = io.EOF
	}
	return n, err
}

// Seek implements io.Seeker.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	if f.closed {
		return 0, fs.ErrClosed
	}
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = f.offset + offset
	case io.SeekEnd:
		abs = f.info.size + offset
	default:
		return 0, fmt.Errorf("s3fs: invalid whence %d", whence)
	}
	if abs < 0 {
		return 0, fmt.Errorf("s3fs: negative seek position %d", abs)
	}
	f.offset = abs
	return abs, nil
}

// Close releases the handle.
func (f *File) Close() error {
	f.closed = true
	f.buf = nil
	return nil
}

type fileInfo struct {
	name  string
	size  int64
	mtime time.Time
}

func (fi fileInfo) Name() string       { return fi.name }
func (fi fileInfo) Size() int64        { return fi.size }
func (fi fileInfo) Mode() fs.FileMode  { return 0o444 }
func (fi fileInfo) ModTime() time.Time { return fi.mtime }
func (fi fileInfo) IsDir() bool        { return false }
func (fi fileInfo) Sys() any           { return nil }

type dirEntry struct {
	name  string
	size  int64
	mtime time.Time
	isDir bool
}

func (d dirEntry) Name() string { return d.name }
func (d dirEntry) IsDir() bool  { return d.isDir }
func (d dirEntry) Type() fs.FileMode {
	if d.isDir {
		return fs.ModeDir
	}
	return 0
}
func (d dirEntry) Info() (fs.FileInfo, error) {
	return fileInfo{name: d.name, size: d.size, mtime: d.mtime}, nil
}
