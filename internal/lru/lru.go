// Package lru is the storage node's one byte-bounded LRU. The decoded
// array cache, the encoded payload cache and the file-metadata cache (all
// in internal/core) are instances of it: each
// supplies a key type, a size function and its own metric handles, and
// shares the eviction, single-flight and invalidation code.
//
// Values are shared between concurrent readers and MUST be treated as
// immutable by callers. A nil *Cache is valid and means "off", so call
// sites need no conditionals.
package lru

import (
	"container/list"
	"context"
	"sync"

	"vizndp/internal/telemetry"
)

// Outcome classifies one GetOrLoad call.
type Outcome int

const (
	// Hit means the entry was already resident.
	Hit Outcome = iota
	// Miss means this call performed the load.
	Miss
	// Coalesced means the call waited on a load started by another.
	Coalesced
)

// String names the outcome for span attributes and logs.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Coalesced:
		return "coalesced"
	}
	return "unknown"
}

// Metrics are the handles one cache instance reports to. Coalesced is
// touched only by GetOrLoad; a cache that never calls it may leave it nil.
type Metrics struct {
	Hits, Misses, Coalesced, Evictions *telemetry.Counter
	Bytes, Entries                     *telemetry.Gauge
}

// Cache is a byte-bounded LRU with optional single-flight loading. All
// methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	size func(V) int64
	m    Metrics
	max  int64

	mu       sync.Mutex
	resident int64
	entries  map[K]*list.Element
	order    *list.List // front = most recent; values are *item[K, V]
	flights  map[K]*flight[V]
}

type item[K comparable, V any] struct {
	key   K
	value V
}

// flight is one in-progress single-flight load.
type flight[V any] struct {
	done  chan struct{}
	value V
	err   error
	// orphaned marks a load that failed after its own caller's context had
	// ended: err may be that caller's cancellation, which is no waiter's
	// business, so waiters that are still live go again.
	orphaned bool
}

// New returns a cache bounded to maxBytes as accounted by size, or nil
// (off) when maxBytes <= 0.
func New[K comparable, V any](maxBytes int64, size func(V) int64, m Metrics) *Cache[K, V] {
	if maxBytes <= 0 {
		return nil
	}
	return &Cache[K, V]{
		size:    size,
		m:       m,
		max:     maxBytes,
		entries: make(map[K]*list.Element),
		order:   list.New(),
		flights: make(map[K]*flight[V]),
	}
}

// Get returns the resident value for key, if any, refreshing recency and
// counting the lookup as a hit or a miss.
func (c *Cache[K, V]) Get(key K) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok = c.getLocked(key); !ok {
		c.m.Misses.Inc()
	}
	return v, ok
}

func (c *Cache[K, V]) getLocked(key K) (v V, ok bool) {
	el, ok := c.entries[key]
	if ok {
		c.order.MoveToFront(el)
		c.m.Hits.Inc()
		v = el.Value.(*item[K, V]).value
	}
	return v, ok
}

// GetOrLoad returns the cached value for key, loading it with load on a
// miss. Concurrent calls for the same key while a load is in progress
// wait for that one load instead of issuing their own; a failed load is
// not cached and its error is returned to every waiter. ctx bounds only
// the caller's own wait: a waiter whose ctx ends returns ctx.Err() at
// once while the load carries on and caches its result, and the load's
// caller going away never fails a waiter (see flight.orphaned). A nil
// cache loads every time.
func (c *Cache[K, V]) GetOrLoad(ctx context.Context, key K, load func() (V, error)) (V, Outcome, error) {
	if c == nil {
		v, err := load()
		return v, Miss, err
	}
	c.mu.Lock()
	for {
		if v, ok := c.getLocked(key); ok {
			c.mu.Unlock()
			return v, Hit, nil
		}
		f, ok := c.flights[key]
		if !ok {
			break
		}
		c.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			c.m.Coalesced.Inc()
			var zero V
			return zero, Coalesced, ctx.Err()
		}
		if !f.orphaned || ctx.Err() != nil {
			c.m.Coalesced.Inc()
			return f.value, Coalesced, f.err
		}
		c.mu.Lock()
	}
	f := &flight[V]{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	c.m.Misses.Inc()
	f.value, f.err = load()
	f.orphaned = f.err != nil && ctx.Err() != nil

	c.mu.Lock()
	delete(c.flights, key)
	if f.err == nil {
		c.putLocked(key, f.value)
	}
	c.mu.Unlock()
	close(f.done)
	return f.value, Miss, f.err
}

// Put retains one value, evicting from the LRU tail until it fits.
// Values larger than the whole budget are never retained.
func (c *Cache[K, V]) Put(key K, v V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, v)
}

func (c *Cache[K, V]) putLocked(key K, v V) {
	size := c.size(v)
	if size > c.max {
		return
	}
	if el, ok := c.entries[key]; ok {
		// A racing producer of the same key already landed; keep the
		// newer value and refresh recency.
		it := el.Value.(*item[K, V])
		c.resident += size - c.size(it.value)
		it.value = v
		c.order.MoveToFront(el)
		c.m.Bytes.Set(c.resident)
		return
	}
	for c.resident+size > c.max && c.order.Len() > 0 {
		c.removeLocked(c.order.Back())
		c.m.Evictions.Inc()
	}
	c.entries[key] = c.order.PushFront(&item[K, V]{key: key, value: v})
	c.resident += size
	c.m.Bytes.Set(c.resident)
	c.m.Entries.Set(int64(len(c.entries)))
}

// removeLocked drops one element from the LRU and the index.
func (c *Cache[K, V]) removeLocked(el *list.Element) {
	it := el.Value.(*item[K, V])
	c.order.Remove(el)
	delete(c.entries, it.key)
	c.resident -= c.size(it.value)
	c.m.Bytes.Set(c.resident)
	c.m.Entries.Set(int64(len(c.entries)))
}

// Invalidate drops every resident entry whose key matches and reports
// how many were removed. In-flight loads are unaffected.
func (c *Cache[K, V]) Invalidate(match func(K) bool) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if match(el.Value.(*item[K, V]).key) {
			c.removeLocked(el)
			n++
		}
		el = next
	}
	return n
}

// Reset drops every resident entry (in-flight loads are unaffected and
// will repopulate). Used by benchmarks to re-measure cold paths.
func (c *Cache[K, V]) Reset() {
	c.Invalidate(func(K) bool { return true })
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Resident returns the accounted resident byte total.
func (c *Cache[K, V]) Resident() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resident
}
