package arraycache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"vizndp/internal/grid"
)

// entryOf builds an n-value entry (4n accounted bytes).
func entryOf(name string, n int) *Entry {
	return &Entry{
		Grid:  grid.NewUniform(n, 1, 1),
		Field: grid.NewField(name, n),
	}
}

func keyOf(path string, ver int64) Key {
	return Key{Path: path, Array: "d", Version: Version{MTime: ver, Size: 100}}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := New(1 << 20)
	loads := 0
	load := func() (*Entry, error) {
		loads++
		return entryOf("d", 10), nil
	}
	e1, out, err := c.GetOrLoad(context.Background(), keyOf("a", 1), load)
	if err != nil || out != Miss {
		t.Fatalf("first lookup: outcome %v, err %v", out, err)
	}
	e2, out, err := c.GetOrLoad(context.Background(), keyOf("a", 1), load)
	if err != nil || out != Hit {
		t.Fatalf("second lookup: outcome %v, err %v", out, err)
	}
	if e1 != e2 {
		t.Error("hit returned a different entry")
	}
	if loads != 1 {
		t.Errorf("loads = %d, want 1", loads)
	}
	if c.Len() != 1 || c.Resident() != 40 {
		t.Errorf("len %d resident %d, want 1/40", c.Len(), c.Resident())
	}
}

func TestCacheVersionChangeMisses(t *testing.T) {
	c := New(1 << 20)
	loads := 0
	load := func() (*Entry, error) {
		loads++
		return entryOf("d", 10), nil
	}
	c.GetOrLoad(context.Background(), keyOf("a", 1), load)
	// Same path+array, new file version: must reload under the new key.
	_, out, _ := c.GetOrLoad(context.Background(), keyOf("a", 2), load)
	if out != Miss || loads != 2 {
		t.Errorf("changed version: outcome %v, loads %d", out, loads)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := New(100) // fits two 40-byte entries, not three
	for i := 0; i < 3; i++ {
		path := fmt.Sprintf("p%d", i)
		c.GetOrLoad(context.Background(), keyOf(path, 1), func() (*Entry, error) {
			return entryOf("d", 10), nil
		})
		if i == 1 {
			// Touch p0 so p1 becomes the LRU victim.
			if _, ok := c.Get(keyOf("p0", 1)); !ok {
				t.Fatal("p0 not resident")
			}
		}
	}
	if _, ok := c.Get(keyOf("p0", 1)); !ok {
		t.Error("recently used p0 evicted")
	}
	if _, ok := c.Get(keyOf("p1", 1)); ok {
		t.Error("LRU victim p1 still resident")
	}
	if _, ok := c.Get(keyOf("p2", 1)); !ok {
		t.Error("newest p2 evicted")
	}
	if c.Resident() > 100 {
		t.Errorf("resident %d exceeds budget", c.Resident())
	}
}

func TestCacheOversizeEntryNotRetained(t *testing.T) {
	c := New(16)
	e, out, err := c.GetOrLoad(context.Background(), keyOf("big", 1), func() (*Entry, error) {
		return entryOf("d", 10), nil // 40 bytes > 16 budget
	})
	if err != nil || out != Miss || e == nil {
		t.Fatalf("oversize load: %v/%v", out, err)
	}
	if c.Len() != 0 || c.Resident() != 0 {
		t.Errorf("oversize entry retained: len %d resident %d", c.Len(), c.Resident())
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := New(1 << 20)
	const waiters = 16
	var loads atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	load := func() (*Entry, error) {
		loads.Add(1)
		close(started)
		<-release
		return entryOf("d", 10), nil
	}

	var wg sync.WaitGroup
	outcomes := make([]Outcome, waiters)
	entries := make([]*Entry, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, out, err := c.GetOrLoad(context.Background(), keyOf("a", 1), load)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			outcomes[i] = out
			entries[i] = e
		}(i)
	}
	<-started
	close(release)
	wg.Wait()

	if n := loads.Load(); n != 1 {
		t.Fatalf("loads = %d, want exactly 1", n)
	}
	misses, hits := 0, 0
	for i, out := range outcomes {
		switch out {
		case Miss:
			misses++
		case Coalesced, Hit:
			hits++
		}
		if entries[i] != entries[0] {
			t.Errorf("waiter %d got a different entry", i)
		}
	}
	if misses != 1 {
		t.Errorf("misses = %d, want 1 (rest coalesced)", misses)
	}
}

func TestCacheLoadErrorNotCached(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	_, out, err := c.GetOrLoad(context.Background(), keyOf("a", 1), func() (*Entry, error) {
		return nil, boom
	})
	if out != Miss || !errors.Is(err, boom) {
		t.Fatalf("failed load: outcome %v, err %v", out, err)
	}
	if c.Len() != 0 {
		t.Error("failed load cached")
	}
	// A retry must call load again and succeed.
	e, out, err := c.GetOrLoad(context.Background(), keyOf("a", 1), func() (*Entry, error) {
		return entryOf("d", 4), nil
	})
	if err != nil || out != Miss || e == nil {
		t.Fatalf("retry: outcome %v, err %v", out, err)
	}
}

func TestCacheReset(t *testing.T) {
	c := New(1 << 20)
	c.GetOrLoad(context.Background(), keyOf("a", 1), func() (*Entry, error) { return entryOf("d", 10), nil })
	c.GetOrLoad(context.Background(), keyOf("b", 1), func() (*Entry, error) { return entryOf("d", 10), nil })
	c.Reset()
	if c.Len() != 0 || c.Resident() != 0 {
		t.Errorf("after reset: len %d resident %d", c.Len(), c.Resident())
	}
	_, out, _ := c.GetOrLoad(context.Background(), keyOf("a", 1), func() (*Entry, error) { return entryOf("d", 10), nil })
	if out != Miss {
		t.Errorf("post-reset lookup: outcome %v, want Miss", out)
	}
}

func TestCacheNilIsOff(t *testing.T) {
	var c *Cache
	if New(0) != nil {
		t.Error("New(0) should return a nil (disabled) cache")
	}
	loads := 0
	for i := 0; i < 2; i++ {
		e, out, err := c.GetOrLoad(context.Background(), keyOf("a", 1), func() (*Entry, error) {
			loads++
			return entryOf("d", 4), nil
		})
		if err != nil || out != Miss || e == nil {
			t.Fatalf("nil cache lookup %d: %v/%v", i, out, err)
		}
	}
	if loads != 2 {
		t.Errorf("nil cache coalesced loads: %d", loads)
	}
	if c.Len() != 0 || c.Resident() != 0 {
		t.Error("nil cache reports state")
	}
	c.Reset() // must not panic
}
