package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net"
	"slices"
	"sync"
	"time"

	"vizndp/internal/contour"
	"vizndp/internal/grid"
	"vizndp/internal/lru"
	"vizndp/internal/rpc"
	"vizndp/internal/telemetry"
	"vizndp/internal/vtkio"
)

// Server-side NDP metrics, reported to the default telemetry registry:
// corrupt reads caught, and the read and filter stages' durations. Fetch
// and error counts are rpc.server.call.<method>.*; everything else about
// one fetch is on its wide event.
var (
	mFetchCorrupt  = telemetry.Default().Counter("ndp.fetch.corrupt")
	mFetchReadSecs = telemetry.Default().Histogram("ndp.fetch.read.seconds")
	mFetchFiltSecs = telemetry.Default().Histogram("ndp.fetch.filter.seconds")
)

var serverLog = telemetry.Logger("ndpserver")

// RPC method names exposed by the NDP server.
const (
	MethodDescribe   = "ndp.describe"
	MethodFetch      = "ndp.fetch"
	MethodFetchRange = "ndp.fetchrange"
	MethodFetchSlice = "ndp.fetchslice"
	MethodFetchRaw   = "ndp.fetchraw"
	MethodManifest   = "ndp.manifest"
)

// Server is the storage-side NDP service: a partial pipeline consisting
// of a source (reading dataset files through the given filesystem, which
// on the storage node is an s3fs mount colocated with the object store)
// and a pre-filter. Clients drive it over msgpack-rpc.
type Server struct {
	fsys      fs.FS
	rpc       *rpc.Server
	cache     *lru.Cache[arrayKey, *arrayEntry]
	payloads  *lru.Cache[payloadKey, *fetchResult]
	meta      *lru.Cache[metaKey, *vtkio.Meta]
	scrub     *Scrubber
	rpcOpts   []rpc.ServerOption
	shardName string
}

// ServerOption customizes a Server.
type ServerOption func(*Server)

// WithCacheBytes bounds a storage-side cache of decoded arrays to
// maxBytes: repeated fetches of the same (path, array) — the isovalue
// sweep workload — skip the storage read and decompression entirely.
// maxBytes <= 0 disables the cache (the default).
//
// maxBytes bounds the decoded arrays' bytes. Each resident array also
// carries its row summary (contour.RowRanges), 8 bytes per point row —
// 1/64 of the array at nx = 128 — which lets a select skip the rows no
// isovalue can cross. The summary is not charged to the bound: a bound
// sized to a whole number of arrays (the benchmark's crowd cache holds
// exactly five 8 MiB arrays) would otherwise hold one array fewer and
// trade the faster select for more storage reads.
func WithCacheBytes(maxBytes int64) ServerOption {
	return func(s *Server) { s.cache = lru.New[arrayKey](maxBytes, (*arrayEntry).size, arrayMetrics) }
}

// WithCoalesce does nothing. Concurrent identical requests share one load
// and scan through the payload cache's single flight
// (WithPayloadCacheBytes), different queries over one array share its
// read through the array cache's (WithCacheBytes), and there is no window
// to set. The option exists only because bench/workloads.go still passes
// it and bench/ is frozen outside benchmark PRs; it goes when that call
// does (ROADMAP, "Next: the benchmark PR", item 3).
func WithCoalesce(time.Duration) ServerOption { return func(*Server) {} }

// WithPayloadCacheBytes bounds a storage-side cache of encoded fetch
// results to maxBytes: an identical repeat request — same method, array
// version, selection arguments, and encoding — skips the read AND the
// scan, and one that arrives while the first is still being served waits
// for its result instead of repeating the work. maxBytes <= 0 disables
// both (the default).
func WithPayloadCacheBytes(maxBytes int64) ServerOption {
	return func(s *Server) {
		s.payloads = lru.New[payloadKey](maxBytes, (*fetchResult).size, payloadMetrics)
	}
}

// WithShardName stamps every fetch's server-side wide event with a
// shard= attribute, so a sharded deployment's per-node events can be
// sliced apart at /debug/requests. Empty (the default) stamps nothing.
func WithShardName(name string) ServerOption {
	return func(s *Server) { s.shardName = name }
}

// WithScrubber attaches a background integrity scrubber. Requests for
// an object the scrubber has quarantined are rejected up front with the
// data-level rpc.ErrCorrupt instead of re-reading known-bad bytes.
func WithScrubber(sc *Scrubber) ServerOption {
	return func(s *Server) { s.scrub = sc }
}

// WithMaxInFlight bounds how many requests execute concurrently
// (admission control); further requests wait in the bounded queue. See
// rpc.WithMaxInFlight. n <= 0 means unbounded, the default.
func WithMaxInFlight(n int) ServerOption {
	return func(s *Server) { s.rpcOpts = append(s.rpcOpts, rpc.WithMaxInFlight(n)) }
}

// WithQueue bounds the admission wait queue; past it the server sheds
// requests with the retryable busy error instead of letting work pile
// up. See rpc.WithQueue. Only meaningful with WithMaxInFlight.
func WithQueue(n int) ServerOption {
	return func(s *Server) { s.rpcOpts = append(s.rpcOpts, rpc.WithQueue(n)) }
}

// NewServer builds an NDP server over the given filesystem.
func NewServer(fsys fs.FS, opts ...ServerOption) *Server {
	s := &Server{
		fsys: fsys,
		meta: lru.New[metaKey](metaCacheBytes, (*vtkio.Meta).Size, metaMetrics),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.rpc = rpc.NewServer(s.rpcOpts...)
	s.rpc.Register(MethodDescribe, s.handleDescribe)
	for _, sel := range []*selector{contourSelector, rangeSelector, sliceSelector, rawSelector} {
		s.rpc.Register(sel.method, func(ctx context.Context, args []any) (any, error) {
			return s.serveFetch(ctx, args, sel)
		})
	}
	s.rpc.Register(MethodManifest, s.handleManifest)
	return s
}

// Cache exposes the array cache (nil when disabled) for tests and
// benchmarks that need to reset or inspect it.
func (s *Server) Cache() *lru.Cache[arrayKey, *arrayEntry] { return s.cache }

// Serve accepts NDP connections from ln until closed. A deliberate stop
// (Close or Shutdown) yields rpc.ErrShutdown.
func (s *Server) Serve(ln net.Listener) error { return s.rpc.Serve(ln) }

// Close shuts the server down immediately, cutting in-flight fetches.
func (s *Server) Close() { s.rpc.Close() }

// Shutdown drains the server gracefully: new requests are shed with the
// retryable busy error while accepted fetches finish, then connections
// close. When ctx expires first the rest are cut off and ctx's error
// returned; nil means no accepted request was lost.
func (s *Server) Shutdown(ctx context.Context) error { return s.rpc.Shutdown(ctx) }

func argString(args []any, i int, what string) (string, error) {
	if i >= len(args) {
		return "", fmt.Errorf("core: missing %s argument", what)
	}
	v, ok := args[i].(string)
	if !ok {
		return "", fmt.Errorf("core: %s argument is %T, want string", what, args[i])
	}
	return v, nil
}

// asFloat accepts a msgpack-decoded number in any numeric wire shape: a
// conforming msgpack-rpc peer encodes 1.0 as an int, and our decoder
// yields float32 for float32-format values and uint64 above MaxInt64.
// The client-side decoders (float3, floatSlice) are equally liberal;
// this keeps the server from rejecting what the protocol allows.
func asFloat(v any) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case float32:
		return float64(n), true
	case int64:
		return float64(n), true
	case uint64:
		return float64(n), true
	}
	return 0, false
}

// argFloat decodes one numeric argument via asFloat.
func argFloat(args []any, i int, what string) (float64, error) {
	if i >= len(args) {
		return 0, fmt.Errorf("core: missing %s argument", what)
	}
	f, ok := asFloat(args[i])
	if !ok {
		return 0, fmt.Errorf("core: %s argument is %T, want number", what, args[i])
	}
	return f, nil
}

// openReader opens a dataset file for selective (random-access) reads.
// The file's parsed metadata — header, chunk index, checksum table — is
// kept per (path, version), the version being the stat of the file just
// opened (on s3fs that is the HEAD the open already made, so it costs no
// request): a repeat open of an unchanged file reads nothing but the
// array it is after. A filesystem that reports no mtime is not cached
// over, for fileVersion's reason.
func (s *Server) openReader(path string) (*vtkio.Reader, io.Closer, error) {
	f, err := s.fsys.Open(path)
	if err != nil {
		return nil, nil, err
	}
	ra, ok := f.(io.ReaderAt)
	if !ok {
		f.Close()
		return nil, nil, fmt.Errorf("core: %s does not support random access", path)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	versioned := !info.ModTime().IsZero()
	key := metaKey{path, versionOf(info)}
	var m *vtkio.Meta
	if versioned {
		m, _ = s.meta.Get(key)
	}
	if m == nil {
		if m, err = vtkio.ReadMeta(ra); err != nil {
			f.Close()
			return nil, nil, err
		}
		if versioned {
			s.meta.Put(key, m)
		}
	}
	return vtkio.NewReader(ra, m), f, nil
}

func (s *Server) handleDescribe(ctx context.Context, args []any) (any, error) {
	path, err := argString(args, 0, "path")
	if err != nil {
		return nil, err
	}
	if err := s.quarantined(path); err != nil {
		return nil, err
	}
	r, closer, err := s.openReader(path)
	if err != nil {
		return nil, s.failCorrupt(ctx, path, err)
	}
	defer closer.Close()
	h := r.Header()
	return map[string]any{
		"dims":    []any{int64(h.Dims[0]), int64(h.Dims[1]), int64(h.Dims[2])},
		"origin":  []any{h.Origin[0], h.Origin[1], h.Origin[2]},
		"spacing": []any{h.Spacing[0], h.Spacing[1], h.Spacing[2]},
	}, nil
}

// fileVersion is the version probe: one stat of path, whatever the
// filesystem. A rewritten file (new mtime or size) misses under a fresh
// cache key and the stale entry ages out of the LRU. On an s3fs mount the
// mtime is the object store's own stamp, which a PUT always moves forward,
// so a same-size overwrite is seen there as on a local disk. A filesystem
// that reports no mtime cannot be cached over — size alone would serve a
// same-size overwrite stale — and is refused by name.
func (s *Server) fileVersion(path string) (stamp, error) {
	info, err := fs.Stat(s.fsys, path)
	if err != nil {
		return stamp{}, err
	}
	if info.ModTime().IsZero() {
		return stamp{}, fmt.Errorf("core: %T reports no modification time for %s, "+
			"so caching over it could serve a stale array "+
			"(an s3fs mount of an objstored that predates version stamps?)", s.fsys, path)
	}
	return versionOf(info), nil
}

// versionOf is what tells one version of a file from the next: its
// modification time and size.
func versionOf(info fs.FileInfo) stamp {
	return stamp{mtime: info.ModTime().UnixNano(), size: info.Size()}
}

// corruptionError reports whether err means the stored bytes lied:
// a page failed its recorded CRC, or a read came up short against the
// sizes the header promised (a truncated object). Codec errors are NOT
// classified — checksum verification runs before decompression, so on
// checksummed data a codec failure indicates a bug, not bad storage.
func corruptionError(err error) bool {
	return errors.Is(err, vtkio.ErrChecksum) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.EOF)
}

// failCorrupt classifies a failed read of path. Whatever the failure,
// the path's cached metadata goes: it was read through the same store,
// its small reads carry no checksum, and a header that parsed but lies
// (a flipped digit in a chunk size) surfaces as a size, codec or CRC
// error on the array — keeping it would fail every later fetch of a file
// version that is in fact fine. A corruptionError is then converted into
// the wire-preserved rpc.ErrCorrupt, counted, stamped on the request's
// wide event, and evicts everything previously decoded from the same
// path — resident entries may predate the damage, but a store that
// corrupted one read has forfeited trust in cheaper copies of the same
// object. Any other error passes through unchanged.
func (s *Server) failCorrupt(ctx context.Context, path string, err error) error {
	s.meta.Invalidate(func(k metaKey) bool { return k.path == path })
	if !corruptionError(err) {
		return err
	}
	mFetchCorrupt.Inc()
	dropped := s.cache.Invalidate(func(k arrayKey) bool { return k.path == path }) +
		s.payloads.Invalidate(func(k payloadKey) bool { return k.path == path })
	ev := telemetry.EventFromContext(ctx)
	ev.SetAttr("corrupt", path)
	ev.SetAttr("corruptEvicted", dropped)
	serverLog.Warn("corrupt read", "path", path, "evicted", dropped, "err", err)
	return fmt.Errorf("%w: %s: %w", rpc.ErrCorrupt, path, err)
}

// quarantined rejects paths the scrubber has flagged, before any read
// or cache lookup.
func (s *Server) quarantined(path string) error {
	if reason := s.scrub.Quarantined(path); reason != "" {
		mFetchCorrupt.Inc()
		return fmt.Errorf("%w: %s quarantined: %s", rpc.ErrCorrupt, path, reason)
	}
	return nil
}

// loadArray is the pipeline's load stage: it resolves one array through
// the cache when configured. Without a cache every call reads storage,
// and reads only what the selector needs to serve q (readPlanned); with
// one, concurrent requests single-flight onto one read of the whole
// array — an entry must serve any later query — and repeats are served
// resident. The call that performed the storage read (+ decompression)
// records it as its request's read stage and returns its duration, so
// the readns a client sees stays an honest account of storage work
// actually done for it, and hits and coalesced waits stay out of the
// read-time histogram. A request waiting on another's read waits under
// its own ctx and records that as its wait stage.
func (s *Server) loadArray(ctx context.Context, key arrayKey, sel *selector, q query) (*arrayEntry, time.Duration, error) {
	ev := telemetry.EventFromContext(ctx)
	start := time.Now()
	entry, outcome, err := s.cache.GetOrLoad(ctx, key, func() (*arrayEntry, error) {
		// One actual storage read: open, parse the header, read +
		// decompress the array. The entry outlives the closed file.
		r, closer, err := s.openReader(key.path)
		if err != nil {
			return nil, err
		}
		defer closer.Close()
		if s.cache == nil {
			return readPlanned(ev, r, key.array, sel, q)
		}
		field, err := r.ReadArray(key.array)
		if err != nil {
			return nil, err
		}
		// Only an entry the cache keeps repays its summary; an uncached one
		// serves this one request.
		e := &arrayEntry{grid: r.Grid(), field: field}
		if e.rows, err = contour.SummarizeRows(e.grid, field.Values); err != nil {
			return nil, err
		}
		return e, nil
	})
	var readTime time.Duration
	switch outcome {
	case lru.Miss:
		if readTime = ev.Stage("read", start); err == nil {
			mFetchReadSecs.Observe(readTime.Seconds())
		}
	case lru.Coalesced:
		ev.Stage("wait", start)
	}
	ev.SetCache(outcome.String())
	if err != nil {
		// A failed load was never cached (GetOrLoad caches only on success,
		// and every coalesced waiter receives this same error); failCorrupt's
		// invalidation covers entries decoded from earlier, clean reads.
		return nil, 0, s.failCorrupt(ctx, key.path, err)
	}
	return entry, readTime, nil
}

// readPlanned is an uncached load: it reads the chunks of the array that
// serving q can touch and no others. When the file records its chunks'
// value ranges and the selector plans its reads, readPlan.plan turns
// the ranges into bounds on every point row, and the entry carries those
// bounds as its row summary: the select then sweeps only the row pairs
// they leave live, whose rows are all among the ones read, and its mask —
// so the payload — is the full sweep's (TestUncachedPlannedReadBitIdentity,
// FuzzPlannedReadContour). Otherwise the whole array is read. The values
// land in the plan's recycled destination, so those outside the wanted
// chunks are whatever an earlier load left there; no select reads them,
// for the same reason. The entry holds the plan until the pipeline
// releases it, right after its one select. The request's wide event
// records how many of the array's chunks were read.
func readPlanned(ev *telemetry.ActiveEvent, r *vtkio.Reader, array string, sel *selector, q query) (_ *arrayEntry, err error) {
	p, _ := planPool.Get().(*readPlan)
	if p == nil {
		p = new(readPlan)
	}
	e := &arrayEntry{grid: r.Grid(), plan: p}
	defer func() {
		if err != nil {
			e.release()
		}
	}()
	chunks, err := r.ChunkRanges(array, p.chunks)
	if err != nil {
		return nil, err
	}
	var want []bool
	if chunks != nil && sel.rows != nil {
		p.chunks = chunks
		if e.rows, err = p.plan(e.grid, sel, q); err != nil {
			return nil, err
		}
		want = p.want
	}
	n := e.grid.NumPoints()
	p.values = slices.Grow(p.values[:0], n)[:n]
	if err = r.ReadArrayChunksInto(array, want, p.values); err != nil {
		return nil, err
	}
	e.field = &grid.Field{Name: array, Values: p.values}
	total := len(r.Header().Array(array).Chunks)
	read := total
	for _, w := range want {
		if !w {
			read--
		}
	}
	ev.SetAttr("chunks", total)
	ev.SetAttr("chunksRead", read)
	return e, nil
}

// readPlan is one uncached load's working memory, recycled through
// planPool: the array's chunk ranges, the bounds on its rows, the rows
// its select reads, the chunks that hold them, and the array's values.
// Nothing in it outlives the request that loaded it.
type readPlan struct {
	chunks []vtkio.ChunkRange
	bounds []float32
	need   []uint64
	want   []bool
	values []float32
}

var planPool sync.Pool

// plan bounds each point row of g by the union of the ranges of the
// chunks its values lie in, has sel mark the point rows its select for q
// reads under those bounds, and sets p.want to exactly the chunks that
// hold one of them. It returns the bounds.
func (p *readPlan) plan(g *grid.Uniform, sel *selector, q query) (*contour.RowRanges, error) {
	nx, n := g.Dims.X, g.Dims.Y*g.Dims.Z
	p.bounds = slices.Grow(p.bounds[:0], 2*n)[:2*n]
	lo, hi := p.bounds[:n], p.bounds[n:]
	for r := range lo {
		lo[r], hi[r] = float32(math.Inf(1)), float32(math.Inf(-1))
	}
	// The point rows chunk c's values [Start, End) fall in.
	span := func(c vtkio.ChunkRange) (int, int) { return min(c.Start/nx, n), min((c.End+nx-1)/nx, n) }
	for _, c := range p.chunks {
		r0, r1 := span(c)
		for r := r0; r < r1; r++ {
			lo[r], hi[r] = min(lo[r], c.Lo), max(hi[r], c.Hi)
		}
	}
	sum, err := contour.BoundRows(g, lo, hi)
	if err != nil {
		return nil, err
	}
	p.need = slices.Grow(p.need[:0], (n+63)/64)[:(n+63)/64]
	clear(p.need)
	sel.rows(q, sum, p.need)
	p.want = slices.Grow(p.want[:0], len(p.chunks))[:len(p.chunks)]
	for i, c := range p.chunks {
		r0, r1 := span(c)
		p.want[i] = false
		for r := r0; r < r1 && !p.want[i]; r++ {
			p.want[i] = p.need[r>>6]&(1<<(r&63)) != 0
		}
	}
	return sum, nil
}

// handleManifest serves a brick manifest document from the store. The
// server validates it before shipping so a corrupt manifest fails here,
// with the store named in the error, instead of in every client.
func (s *Server) handleManifest(_ context.Context, args []any) (any, error) {
	path, err := argString(args, 0, "path")
	if err != nil {
		return nil, err
	}
	if err := s.quarantined(path); err != nil {
		return nil, err
	}
	data, err := fs.ReadFile(s.fsys, path)
	if err != nil {
		return nil, err
	}
	if _, err := vtkio.DecodeManifest(data); err != nil {
		return nil, fmt.Errorf("core: manifest %s: %w", path, err)
	}
	return map[string]any{
		"manifest": data,
		"crc":      int64(vtkio.Checksum(data)),
	}, nil
}
