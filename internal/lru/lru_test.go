package lru

import (
	"testing"

	"vizndp/internal/telemetry"
)

// newTestCache builds a string-keyed cache of byte slices, accounted by
// length, reporting to a private registry. GetOrLoad's single-flight,
// failed-load and nil-cache behaviour is pinned through the array-cache
// instance, in internal/arraycache.
func newTestCache(maxBytes int64) (*Cache[string, []byte], Metrics) {
	reg := telemetry.NewRegistry()
	m := Metrics{
		Hits: reg.Counter("hits"), Misses: reg.Counter("misses"),
		Coalesced: reg.Counter("coalesced"), Evictions: reg.Counter("evictions"),
		Bytes: reg.Gauge("bytes"), Entries: reg.Gauge("entries"),
		LoadSeconds: reg.Histogram("load", telemetry.DurationBuckets),
	}
	return New[string](maxBytes, func(v []byte) int64 { return int64(len(v)) }, m), m
}

func TestPutGetEvictsLRU(t *testing.T) {
	c, m := newTestCache(1000)
	c.Put("a", make([]byte, 400))
	c.Put("b", make([]byte, 400))
	if c.Len() != 2 || c.Resident() != 800 {
		t.Fatalf("len=%d resident=%d, want 2/800", c.Len(), c.Resident())
	}
	// Touch "a" so "b" is the LRU victim when "c" displaces 400 bytes.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("entry a missing")
	}
	c.Put("c", make([]byte, 400))
	if _, ok := c.Get("b"); ok {
		t.Error("LRU victim b still resident")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("recently used a evicted")
	}
	if c.Len() != 2 || c.Resident() != 800 {
		t.Errorf("len=%d resident=%d after eviction, want 2/800", c.Len(), c.Resident())
	}
	if m.Hits.Value() != 2 || m.Misses.Value() != 1 || m.Evictions.Value() != 1 {
		t.Errorf("hits/misses/evictions = %d/%d/%d, want 2/1/1", m.Hits.Value(), m.Misses.Value(), m.Evictions.Value())
	}

	// An entry over the whole budget is never retained.
	c.Put("huge", make([]byte, 2000))
	if _, ok := c.Get("huge"); ok {
		t.Error("oversized entry retained")
	}

	// Re-putting an existing key replaces in place.
	c.Put("a", make([]byte, 100))
	if c.Resident() != 500 || m.Bytes.Value() != 500 || m.Entries.Value() != 2 {
		t.Errorf("resident=%d gauges=%d/%d after replace, want 500, 500/2", c.Resident(), m.Bytes.Value(), m.Entries.Value())
	}

	// A nil cache is inert.
	var off *Cache[string, []byte]
	off.Put("x", make([]byte, 10))
	if _, ok := off.Get("x"); ok {
		t.Error("nil cache returned a hit")
	}
	if off.Len() != 0 || off.Resident() != 0 {
		t.Error("nil cache reports contents")
	}
}

func TestInvalidateAndReset(t *testing.T) {
	c, _ := newTestCache(1000)
	for _, k := range []string{"x/1", "x/2", "y/1"} {
		c.Put(k, make([]byte, 10))
	}
	if n := c.Invalidate(func(k string) bool { return k[0] == 'x' }); n != 2 {
		t.Errorf("invalidated %d entries, want 2", n)
	}
	if _, ok := c.Get("y/1"); !ok || c.Len() != 1 || c.Resident() != 10 {
		t.Errorf("after invalidate: len=%d resident=%d, y/1 resident=%v", c.Len(), c.Resident(), ok)
	}
	c.Reset()
	if c.Len() != 0 || c.Resident() != 0 {
		t.Errorf("after reset: len=%d resident=%d", c.Len(), c.Resident())
	}
}
