package core

import (
	"vizndp/internal/arraycache"
	"vizndp/internal/lru"
	"vizndp/internal/telemetry"
)

// Server-side payload cache metrics (default registry):
//
//	core.payloadcache.hits      counter — requests served an encoded result from memory
//	core.payloadcache.misses    counter — lookups that fell through to a scan
//	core.payloadcache.evictions counter — entries dropped to fit the byte bound
//	core.payloadcache.bytes     gauge   — encoded result bytes currently held
//	core.payloadcache.entries   gauge   — entries currently held
//
// The cache is an internal/lru instance holding fetchResults by served
// bytes. It never single-flights: concurrent misses are already funneled
// into one scan by the batch stage behind it.
var payloadMetrics = lru.Metrics{
	Hits:      telemetry.Default().Counter("core.payloadcache.hits"),
	Misses:    telemetry.Default().Counter("core.payloadcache.misses"),
	Evictions: telemetry.Default().Counter("core.payloadcache.evictions"),
	Bytes:     telemetry.Default().Gauge("core.payloadcache.bytes"),
	Entries:   telemetry.Default().Gauge("core.payloadcache.entries"),
}

// batchKey names the work a batch shares: one method's selection over one
// array at one file version. Requests with different selection arguments
// or encodings share a key — splitting per-caller results out of the one
// load and scan is the whole point. The file version keys rewritten
// datasets out; it stays zero on a server that neither caches nor
// coalesces, where nothing outlives the request.
type batchKey struct {
	method  string
	path    string
	array   string
	version arraycache.Version
}

// payloadKey names one cached encoded result: the batch it came from plus
// the query's own identity (see query.id).
type payloadKey struct {
	batchKey
	id string
}

// metaKey names one file version's parsed metadata (see openReader).
type metaKey struct {
	path    string
	version arraycache.Version
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
