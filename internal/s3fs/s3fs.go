// Package s3fs presents an object-store bucket as a read-only filesystem,
// standing in for the FUSE-based s3fs tool the paper uses to mount MinIO
// buckets on the client (baseline) or storage (NDP) node.
//
// Every read is one ranged GET into the caller's buffer: vtkio reads
// through io.ReaderAt to fetch only the arrays and chunks it needs, and a
// sequential Read is a ReadAt at the file's cursor, so fs.ReadFile of a
// manifest or a whole brick costs one HEAD and one GET.
package s3fs

import (
	"io"
	"io/fs"
	"path"
	"strings"
	"time"

	"vizndp/internal/objstore"
)

// FS is a read-only fs.FS over one bucket.
type FS struct {
	client *objstore.Client
	bucket string
}

// New returns a filesystem view of bucket served by client.
func New(client *objstore.Client, bucket string) *FS {
	return &FS{client: client, bucket: bucket}
}

// Open opens the named object with one object stat (one HEAD). The
// returned file is an fs.File that also implements io.ReaderAt. Its
// ModTime is the store's version stamp for the object, which every
// overwrite moves forward, so (ModTime, Size) identifies the object's
// content as it does on a local disk.
func (f *FS) Open(name string) (fs.File, error) {
	if !fs.ValidPath(name) || name == "." {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrInvalid}
	}
	size, mtime, err := f.client.Stat(f.bucket, name)
	if err != nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: err}
	}
	info := fileInfo{name: path.Base(name), size: size, mtime: mtime}
	return &File{client: f.client, bucket: f.bucket, key: name, info: info}, nil
}

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
	offset int64    // where the next Read starts
	closed bool
}

var (
	_ fs.File     = (*File)(nil)
	_ io.ReaderAt = (*File)(nil)
)

// Stat implements fs.File.
func (f *File) Stat() (fs.FileInfo, error) {
	if f.closed {
		return nil, fs.ErrClosed
	}
	return f.info, nil
}

// Read is ReadAt at the cursor: one ranged GET of up to len(p) bytes.
func (f *File) Read(p []byte) (int, error) {
	n, err := f.ReadAt(p, f.offset)
	f.offset += int64(n)
	return n, err
}

// ReadAt implements io.ReaderAt with a direct ranged GET whose body
// lands in p.
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

// Close releases the handle.
func (f *File) Close() error {
	f.closed = true
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
