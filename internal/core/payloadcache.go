package core

import (
	"vizndp/internal/contour"
	"vizndp/internal/grid"
	"vizndp/internal/lru"
	"vizndp/internal/telemetry"
)

// The storage node's three caches are instances of internal/lru, all
// defined here: decoded arrays (WithCacheBytes), encoded fetch results
// (WithPayloadCacheBytes) and parsed file metadata (always on). Every key
// carries the file's stamp, so a rewritten file misses under a new key
// and its stale entries age out.

// stamp identifies one state of a backing file: its modification time in
// Unix nanoseconds — what tells a same-length overwrite apart, so the
// server refuses to key on a filesystem that reports none — and its size.
type stamp struct {
	mtime, size int64
}

// Decoded-array cache metrics (default registry):
//
//	arraycache.hits            counter — lookups served from memory
//	arraycache.misses          counter — lookups that paid a storage load
//	arraycache.coalesced       counter — lookups that joined another load
//	arraycache.evictions       counter — entries dropped to fit the bound
//	arraycache.resident.bytes  gauge   — decoded bytes currently held
//	arraycache.entries         gauge   — entries currently held
//
// The paper's viz loop sweeps contour values over one timestep, so every
// request targets the same array with a different isovalue; keeping the
// decoded array near the pre-filter turns the steady-state cost into a
// pure scan. Loads single-flight: N concurrent fetches of one array make
// one storage read.
var arrayMetrics = lru.Metrics{
	Hits:      telemetry.Default().Counter("arraycache.hits"),
	Misses:    telemetry.Default().Counter("arraycache.misses"),
	Coalesced: telemetry.Default().Counter("arraycache.coalesced"),
	Evictions: telemetry.Default().Counter("arraycache.evictions"),
	Bytes:     telemetry.Default().Gauge("arraycache.resident.bytes"),
	Entries:   telemetry.Default().Gauge("arraycache.entries"),
}

// arrayKey names one cached decoded array.
type arrayKey struct {
	path, array string
	version     stamp
}

// arrayEntry is one loaded decoded array and the grid it spans, which is
// everything the fetch pipeline needs without reopening the file. An
// entry the array cache keeps also carries the array's row summary, so
// every contour and range select over it sweeps only the row pairs an
// isovalue can cross; an uncached entry dies with its request and has
// none. Entries are shared between concurrent readers; treat them as
// immutable.
type arrayEntry struct {
	grid  *grid.Uniform
	field *grid.Field
	rows  *contour.RowRanges
	// plan is an uncached entry's pooled memory, its field and row bounds
	// among it (see readPlanned); nil in an entry the cache keeps.
	plan *readPlan
}

// release returns an uncached entry's pooled memory for the next load
// to reuse; the entry must not be read after. It does nothing to an
// entry the cache keeps.
func (e *arrayEntry) release() {
	if e.plan != nil {
		planPool.Put(e.plan)
		e.plan = nil
	}
}

// size is the entry's accounted in-memory size: the decoded array's bytes,
// not the row summary's (see WithCacheBytes).
func (e *arrayEntry) size() int64 { return int64(4 * len(e.field.Values)) }

// Scan-sharing metrics (default registry):
//
//	core.scan.requests  counter — fetches (of any of the four methods) admitted to the pipeline
//	core.scan.passes    counter — single-value selection scans actually run
//	core.scan.coalesced counter — requests that waited on an identical request's flight
//
// passes is sum(len(isovalues)) over the contour requests that scanned,
// one per range request, none for slice and raw; sharing pays off exactly
// when passes/requests drops below one, which the chaos experiment's
// caching replicas must show.
var (
	mScanRequests = telemetry.Default().Counter("core.scan.requests")
	mScanPasses   = telemetry.Default().Counter("core.scan.passes")
)

// Server-side payload cache metrics (default registry):
//
//	core.payloadcache.hits      counter — requests served an encoded result from memory
//	core.payloadcache.misses    counter — requests that ran the load + select + encode themselves
//	core.payloadcache.evictions counter — entries dropped to fit the byte bound
//	core.payloadcache.bytes     gauge   — encoded result bytes currently held
//	core.payloadcache.entries   gauge   — entries currently held
//
// The cache is an internal/lru instance holding fetchResults by served
// bytes, and its single-flight GetOrLoad is the server's one way of
// sharing a scan: an identical request that arrives while one is being
// served waits for that result (core.scan.coalesced, neither a hit nor a
// miss), one that arrives later is a hit.
var payloadMetrics = lru.Metrics{
	Hits:      telemetry.Default().Counter("core.payloadcache.hits"),
	Misses:    telemetry.Default().Counter("core.payloadcache.misses"),
	Coalesced: telemetry.Default().Counter("core.scan.coalesced"),
	Evictions: telemetry.Default().Counter("core.payloadcache.evictions"),
	Bytes:     telemetry.Default().Gauge("core.payloadcache.bytes"),
	Entries:   telemetry.Default().Gauge("core.payloadcache.entries"),
}

// payloadKey names one encoded result, cached or in flight: one method's
// selection over one array at one file version, for one query (see
// query.id). The file version keys rewritten datasets out; version and id
// stay zero on a server with no cache, where nothing outlives the request.
type payloadKey struct {
	method  string
	path    string
	array   string
	version stamp
	id      string
}

// metaKey names one file version's parsed metadata (see Server.reader).
type metaKey struct {
	path    string
	version stamp
}

// metaCacheBytes bounds the metadata cache. A 128-cubed, eleven-array
// file's header and checksum table come to ~10 KB, so this holds a few
// hundred file versions; it is not configurable because nothing about a
// deployment changes what it should be.
const metaCacheBytes = 4 << 20

// Metadata cache metrics (default registry): core.metacache.{hits,
// misses,evictions} counters and core.metacache.{bytes,entries} gauges,
// with the payload cache's meanings.
var metaMetrics = lru.Metrics{
	Hits:      telemetry.Default().Counter("core.metacache.hits"),
	Misses:    telemetry.Default().Counter("core.metacache.misses"),
	Evictions: telemetry.Default().Counter("core.metacache.evictions"),
	Bytes:     telemetry.Default().Gauge("core.metacache.bytes"),
	Entries:   telemetry.Default().Gauge("core.metacache.entries"),
}
