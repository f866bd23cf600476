// Package arraycache keeps decoded data arrays resident on the storage
// node. The paper's viz loop is a scientist sweeping contour values over
// one timestep: every request targets the same (file, array) pair with a
// different isovalue, yet a naive NDP server re-opens the file and
// re-reads + re-decompresses the whole array for each one. When
// selectivity is low the storage read dominates server-side time, so
// keeping the decoded array near the pre-filter turns the steady-state
// cost into a pure scan.
//
// The cache is an instance of internal/lru keyed by (path, array, file
// version), where the version is the backing file's mtime and size as one
// stat reports them — a changed file simply misses under a new key and
// the stale entry ages out. On an object-store mount the mtime is the
// store's own stamp, which every overwrite moves forward. Loads are
// single-flight: N concurrent fetches of the same array trigger exactly
// one storage read, with the rest coalescing onto its result.
//
// Cached fields are shared across concurrent readers and MUST be treated
// as immutable by callers.
//
// Telemetry (default registry):
//
//	arraycache.hits            counter — lookups served from memory
//	arraycache.misses          counter — lookups that paid a storage load
//	arraycache.coalesced       counter — lookups that joined another load
//	arraycache.evictions       counter — entries dropped to fit the bound
//	arraycache.resident.bytes  gauge   — decoded bytes currently held
//	arraycache.entries         gauge   — entries currently held
//	arraycache.load.seconds    histogram — single-flight load durations
package arraycache

import (
	"vizndp/internal/grid"
	"vizndp/internal/lru"
	"vizndp/internal/telemetry"
)

var metrics = lru.Metrics{
	Hits:        telemetry.Default().Counter("arraycache.hits"),
	Misses:      telemetry.Default().Counter("arraycache.misses"),
	Coalesced:   telemetry.Default().Counter("arraycache.coalesced"),
	Evictions:   telemetry.Default().Counter("arraycache.evictions"),
	Bytes:       telemetry.Default().Gauge("arraycache.resident.bytes"),
	Entries:     telemetry.Default().Gauge("arraycache.entries"),
	LoadSeconds: telemetry.Default().Histogram("arraycache.load.seconds", telemetry.DurationBuckets),
}

// Version identifies the state of a backing file. Two requests see the
// same cache entry only while the file's stat is unchanged; rewriting a
// dataset (new mtime or size) invalidates by key mismatch.
type Version struct {
	// MTime is the file's modification time in Unix nanoseconds. It is
	// what tells a same-length overwrite apart, so core.Server refuses
	// to key on a filesystem that reports none.
	MTime int64
	// Size is the file's byte size.
	Size int64
}

// Key names one cached array.
type Key struct {
	Path    string
	Array   string
	Version Version
}

// Entry is one resident decoded array: the field plus the grid it spans,
// which is everything the fetch handlers need without reopening the file.
// Entries are shared between concurrent readers; treat them as immutable.
type Entry struct {
	Grid  *grid.Uniform
	Field *grid.Field
}

// Bytes returns the entry's accounted in-memory size.
func (e *Entry) Bytes() int64 {
	if e == nil || e.Field == nil {
		return 0
	}
	return int64(4 * len(e.Field.Values))
}

// Outcome classifies one GetOrLoad call.
type Outcome = lru.Outcome

const (
	// Hit means the entry was already resident.
	Hit = lru.Hit
	// Miss means this call performed the storage load.
	Miss = lru.Miss
	// Coalesced means the call waited on a load started by another.
	Coalesced = lru.Coalesced
)

// Cache is a byte-bounded LRU of decoded arrays with single-flight
// loading. All methods are safe for concurrent use.
type Cache = lru.Cache[Key, *Entry]

// New returns a cache bounded to maxBytes of decoded array data.
// maxBytes <= 0 returns nil, which every method treats as "cache off",
// so call sites need no conditionals.
func New(maxBytes int64) *Cache {
	return lru.New[Key](maxBytes, (*Entry).Bytes, metrics)
}
