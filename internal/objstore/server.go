// Package objstore is a small S3-style object store standing in for the
// MinIO server in the paper's testbed. The server exposes buckets and
// objects over HTTP — PUT/GET/HEAD/DELETE plus ranged GETs and bucket
// listings — backed by a local directory (the storage node's "local
// SSD"). The client provides typed access and an io.ReaderAt adapter
// that the s3fs layer builds on.
//
// Only the behaviours the experiments rely on are implemented: whole- and
// range-reads served from disk, content lengths, a per-object version
// stamp (see mtimeHeader), and listing. Multipart upload, auth, and
// versioning are out of scope.
package objstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vizndp/internal/telemetry"
)

// Server-side telemetry: request counts per operation, response status
// classes, payload bytes in both directions, and per-operation latency
// histograms. These are what `curl <telemetry-addr>/metrics` on
// objstored reports.
var (
	mReqBytesIn  = telemetry.Default().Counter("objstore.bytes.in")
	mReqBytesOut = telemetry.Default().Counter("objstore.bytes.out")
)

func opCounter(op string) *telemetry.Counter {
	return telemetry.Default().Counter("objstore.requests." + op)
}

func statusCounter(code int) *telemetry.Counter {
	return telemetry.Default().Counter(fmt.Sprintf("objstore.status.%d", code))
}

func opSeconds(op string) *telemetry.Histogram {
	return telemetry.Default().Histogram("objstore.seconds." + op)
}

// statusRecorder captures the status code and body bytes of a response
// so ServeHTTP can account for them after the handler returns.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(b)
	sr.bytes += int64(n)
	return n, err
}

// ReadFrom hands a body copy to the wrapped writer's own ReadFrom, which
// is how http.ServeContent reaches sendfile on a plain TCP connection;
// without it the copy would go through Write 32 KiB at a time. A writer
// with no ReadFrom gets the plain copy. Either way the bytes are counted.
func (sr *statusRecorder) ReadFrom(src io.Reader) (int64, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	var n int64
	var err error
	if rf, ok := sr.ResponseWriter.(io.ReaderFrom); ok {
		n, err = rf.ReadFrom(src)
	} else {
		n, err = io.Copy(struct{ io.Writer }{sr.ResponseWriter}, src)
	}
	sr.bytes += n
	return n, err
}

// mtimeHeader carries an object's version stamp on GET and HEAD replies:
// the stored file's mtime in Unix nanoseconds (Last-Modified has seconds).
// A PUT stamps strictly later than what it replaces (see install), so
// (stamp, size) never repeats for a key and a reader's cache may key on it.
const mtimeHeader = "X-Objstore-Mtime-Ns"

// ObjectInfo describes one stored object.
type ObjectInfo struct {
	Key     string `json:"key"`
	Size    int64  `json:"size"`
	MTimeNs int64  `json:"mtime_ns"`
}

// Server is an http.Handler serving an object store rooted at a
// directory. Buckets are first-level directories; object keys may contain
// slashes.
type Server struct {
	root  string
	putMu sync.Mutex // orders each PUT's version stamp against the object it replaces
}

// NewServer returns a server storing objects under root, creating it if
// needed.
func NewServer(root string) (*Server, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("objstore: %w", err)
	}
	return &Server{root: root}, nil
}

// validName rejects path traversal and empty segments.
func validName(name string) bool {
	if name == "" || strings.HasPrefix(name, "/") {
		return false
	}
	clean := path.Clean(name)
	if clean != name || clean == "." || clean == ".." ||
		strings.HasPrefix(clean, "../") {
		return false
	}
	return true
}

// objectPath maps bucket/key to a filesystem path, or an error for
// malformed names.
func (s *Server) objectPath(bucket, key string) (string, error) {
	if !validName(bucket) || strings.Contains(bucket, "/") {
		return "", fmt.Errorf("objstore: invalid bucket %q", bucket)
	}
	if !validName(key) {
		return "", fmt.Errorf("objstore: invalid key %q", key)
	}
	return filepath.Join(s.root, bucket, filepath.FromSlash(key)), nil
}

// ServeHTTP implements the object protocol:
//
//	PUT    /bucket/key        store object
//	GET    /bucket/key        fetch object (supports Range: bytes=a-b)
//	HEAD   /bucket/key        object metadata
//	DELETE /bucket/key        remove object
//	GET    /bucket?list=1&prefix=p   list objects
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	trimmed := strings.TrimPrefix(r.URL.Path, "/")
	bucket, key, hasKey := strings.Cut(trimmed, "/")

	rec := &statusRecorder{ResponseWriter: w}
	start := time.Now()
	op := "other"
	defer func() {
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		opCounter(op).Inc()
		statusCounter(rec.status).Inc()
		mReqBytesOut.Add(rec.bytes)
		opSeconds(op).Observe(time.Since(start).Seconds())
		// Each object request is also a wide event ("s3.<op>"), so
		// objstored's /debug/requests answers per-request questions the
		// same way ndpserver's does.
		ev := telemetry.DefaultFlightRecorder().BeginAt(telemetry.KindServer, "s3."+op, start)
		if r.ContentLength > 0 {
			ev.SetBytesIn(r.ContentLength)
		}
		ev.SetBytesOut(rec.bytes)
		ev.SetAttr("path", r.URL.Path)
		ev.SetAttr("status", rec.status)
		var herr error
		if rec.status >= 400 {
			herr = fmt.Errorf("objstore: %s %s -> %d", r.Method, r.URL.Path, rec.status)
		}
		ev.Finish(herr)
	}()
	w = rec

	if bucket == "" {
		http.Error(w, "missing bucket", http.StatusBadRequest)
		return
	}

	if !hasKey || key == "" {
		if r.Method == http.MethodGet && r.URL.Query().Has("list") {
			op = "list"
			s.handleList(w, r, bucket)
			return
		}
		http.Error(w, "missing key", http.StatusBadRequest)
		return
	}

	switch r.Method {
	case http.MethodPut:
		op = "put"
		s.handlePut(w, r, bucket, key)
	case http.MethodGet, http.MethodHead:
		op = "get"
		if r.Method == http.MethodHead {
			op = "head"
		}
		s.handleGet(w, r, bucket, key)
	case http.MethodDelete:
		op = "delete"
		s.handleDelete(w, r, bucket, key)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request, bucket, key string) {
	p, err := s.objectPath(bucket, key)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), ".upload-*")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer os.Remove(tmp.Name())
	n, err := io.Copy(tmp, r.Body)
	mReqBytesIn.Add(n)
	written, statErr := tmp.Stat()
	if err := errors.Join(err, statErr, tmp.Close()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if err := s.install(tmp.Name(), written.ModTime(), p); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// install renames the finished upload tmp, last written at stamp, over p.
// File clocks tick in milliseconds, so PUTs of one key can share an mtime:
// one not already later than the object it replaces is pushed just past it,
// under a lock so no other PUT lands between the comparison and the rename.
func (s *Server) install(tmp string, stamp time.Time, p string) error {
	s.putMu.Lock()
	defer s.putMu.Unlock()
	// vizlint:ignore lockhold ordering PUTs' file operations is what this lock is for; only other PUTs wait on it
	if old, err := os.Stat(p); err == nil && !stamp.After(old.ModTime()) {
		stamp = old.ModTime().Add(time.Nanosecond)
		if err := os.Chtimes(tmp, stamp, stamp); err != nil {
			return err
		}
	}
	return os.Rename(tmp, p)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request, bucket, key string) {
	p, err := s.objectPath(bucket, key)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	f, err := os.Open(p)
	if errors.Is(err, os.ErrNotExist) {
		http.Error(w, "no such object", http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil || fi.IsDir() {
		http.Error(w, "no such object", http.StatusNotFound)
		return
	}
	w.Header().Set(mtimeHeader, strconv.FormatInt(fi.ModTime().UnixNano(), 10))
	// http.ServeContent implements Range, HEAD, and Content-Length.
	http.ServeContent(w, r, "", fi.ModTime(), f)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request, bucket, key string) {
	p, err := s.objectPath(bucket, key)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	err = os.Remove(p)
	if errors.Is(err, os.ErrNotExist) {
		http.Error(w, "no such object", http.StatusNotFound)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request, bucket string) {
	if !validName(bucket) || strings.Contains(bucket, "/") {
		http.Error(w, "invalid bucket", http.StatusBadRequest)
		return
	}
	prefix := r.URL.Query().Get("prefix")
	dir := filepath.Join(s.root, bucket)
	// A bucket that was never created is 404, like S3's NoSuchBucket; an
	// existing bucket with no matching objects lists as an empty array.
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		http.Error(w, "no such bucket", http.StatusNotFound)
		return
	}
	// Non-nil so an empty listing encodes as [], not null.
	objects := []ObjectInfo{}
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.IsDir() || strings.HasPrefix(d.Name(), ".upload-") {
			return nil
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if !strings.HasPrefix(key, prefix) {
			return nil
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		objects = append(objects, ObjectInfo{Key: key, Size: fi.Size(), MTimeNs: fi.ModTime().UnixNano()})
		return nil
	})
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	sort.Slice(objects, func(i, j int) bool { return objects[i].Key < objects[j].Key })
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(objects); err != nil {
		// Headers already sent; nothing more to do.
		return
	}
}

// ListenAndServe starts the store on addr over the given listener wrapper
// (pass nil for a plain listener) and returns the bound address and a
// shutdown func.
func (s *Server) ListenAndServe(addr string, wrap func(net.Listener) net.Listener) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	bound := ln.Addr().String()
	if wrap != nil {
		ln = wrap(ln)
	}
	srv := &http.Server{Handler: s}
	go srv.Serve(ln)
	return bound, srv.Close, nil
}

// parseRange parses a single "bytes=a-b" header (helper for tests).
func parseRange(h string, size int64) (off, n int64, err error) {
	const pre = "bytes="
	if !strings.HasPrefix(h, pre) {
		return 0, 0, fmt.Errorf("objstore: bad range %q", h)
	}
	lo, hi, ok := strings.Cut(h[len(pre):], "-")
	if !ok {
		return 0, 0, fmt.Errorf("objstore: bad range %q", h)
	}
	off, err = strconv.ParseInt(lo, 10, 64)
	if err != nil {
		return 0, 0, err
	}
	end, err := strconv.ParseInt(hi, 10, 64)
	if err != nil {
		return 0, 0, err
	}
	if off < 0 || end < off || end >= size {
		return 0, 0, fmt.Errorf("objstore: range %q outside object of %d bytes", h, size)
	}
	return off, end - off + 1, nil
}
