package lru

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vizndp/internal/telemetry"
)

// newTestCache builds a string-keyed cache of byte slices, accounted by
// length, reporting to a private registry.
func newTestCache(maxBytes int64) (*Cache[string, []byte], Metrics) {
	reg := telemetry.NewRegistry()
	m := Metrics{
		Hits: reg.Counter("hits"), Misses: reg.Counter("misses"),
		Coalesced: reg.Counter("coalesced"), Evictions: reg.Counter("evictions"),
		Bytes: reg.Gauge("bytes"), Entries: reg.Gauge("entries"),
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

func TestCacheHitAfterMiss(t *testing.T) {
	c, m := newTestCache(1000)
	loads := 0
	load := func() ([]byte, error) {
		loads++
		return make([]byte, 40), nil
	}
	v1, out, err := c.GetOrLoad(context.Background(), "k", load)
	if err != nil || out != Miss {
		t.Fatalf("first lookup: outcome %v, err %v", out, err)
	}
	v2, out, err := c.GetOrLoad(context.Background(), "k", load)
	if err != nil || out != Hit {
		t.Fatalf("second lookup: outcome %v, err %v", out, err)
	}
	if &v1[0] != &v2[0] || loads != 1 {
		t.Errorf("hit returned a different value or loaded again (%d loads)", loads)
	}
	if c.Len() != 1 || c.Resident() != 40 || m.Hits.Value() != 1 || m.Misses.Value() != 1 {
		t.Errorf("len %d resident %d hits/misses %d/%d, want 1/40, 1/1", c.Len(), c.Resident(), m.Hits.Value(), m.Misses.Value())
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c, m := newTestCache(1000)
	const waiters = 16
	var loads atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	load := func() ([]byte, error) {
		loads.Add(1)
		close(started)
		<-release
		return []byte("value"), nil
	}
	var wg sync.WaitGroup
	outcomes := make([]Outcome, waiters)
	values := make([][]byte, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, out, err := c.GetOrLoad(context.Background(), "k", load)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			outcomes[i], values[i] = out, v
		}(i)
	}
	<-started
	close(release)
	wg.Wait()

	if n := loads.Load(); n != 1 {
		t.Fatalf("loads = %d, want exactly 1", n)
	}
	misses := 0
	for i, out := range outcomes {
		if out == Miss {
			misses++
		}
		if &values[i][0] != &values[0][0] {
			t.Errorf("waiter %d got a different value", i)
		}
	}
	if misses != 1 || m.Misses.Value() != 1 || m.Coalesced.Value()+m.Hits.Value() != waiters-1 {
		t.Errorf("outcome misses %d, counted misses/coalesced/hits %d/%d/%d; want 1 miss, the rest coalesced or hits",
			misses, m.Misses.Value(), m.Coalesced.Value(), m.Hits.Value())
	}
}

func TestCacheLoadErrorNotCached(t *testing.T) {
	c, _ := newTestCache(1000)
	boom := errors.New("boom")
	_, out, err := c.GetOrLoad(context.Background(), "k", func() ([]byte, error) { return nil, boom })
	if out != Miss || !errors.Is(err, boom) {
		t.Fatalf("failed load: outcome %v, err %v", out, err)
	}
	if c.Len() != 0 {
		t.Error("failed load cached")
	}
	// A retry must call load again and succeed.
	v, out, err := c.GetOrLoad(context.Background(), "k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || out != Miss || string(v) != "ok" {
		t.Fatalf("retry: %q, outcome %v, err %v", v, out, err)
	}
}

// TestCacheEvictsLRU: entries that arrive through GetOrLoad are evicted
// least recently used first, as those that arrive through Put are.
func TestCacheEvictsLRU(t *testing.T) {
	c, _ := newTestCache(100) // fits two 40-byte entries, not three
	for _, k := range []string{"p0", "p1", "p2"} {
		c.GetOrLoad(context.Background(), k, func() ([]byte, error) { return make([]byte, 40), nil })
		if k == "p1" {
			// Touch p0 so p1 becomes the LRU victim.
			if _, ok := c.Get("p0"); !ok {
				t.Fatal("p0 not resident")
			}
		}
	}
	if _, ok := c.Get("p0"); !ok {
		t.Error("recently used p0 evicted")
	}
	if _, ok := c.Get("p1"); ok {
		t.Error("LRU victim p1 still resident")
	}
	if _, ok := c.Get("p2"); !ok {
		t.Error("newest p2 evicted")
	}
	if c.Resident() > 100 {
		t.Errorf("resident %d exceeds budget", c.Resident())
	}
}

func TestCacheOversizeEntryNotRetained(t *testing.T) {
	c, _ := newTestCache(16)
	v, out, err := c.GetOrLoad(context.Background(), "big", func() ([]byte, error) { return make([]byte, 40), nil })
	if err != nil || out != Miss || len(v) != 40 {
		t.Fatalf("oversize load: %d bytes, %v, %v", len(v), out, err)
	}
	if c.Len() != 0 || c.Resident() != 0 {
		t.Errorf("oversize entry retained: len %d resident %d", c.Len(), c.Resident())
	}
}

func TestCacheReset(t *testing.T) {
	c, _ := newTestCache(1 << 20)
	load := func() ([]byte, error) { return make([]byte, 40), nil }
	c.GetOrLoad(context.Background(), "a", load)
	c.GetOrLoad(context.Background(), "b", load)
	c.Reset()
	if c.Len() != 0 || c.Resident() != 0 {
		t.Errorf("after reset: len %d resident %d", c.Len(), c.Resident())
	}
	if _, out, _ := c.GetOrLoad(context.Background(), "a", load); out != Miss {
		t.Errorf("post-reset lookup: outcome %v, want Miss", out)
	}
}

func TestCacheNilIsOff(t *testing.T) {
	c, _ := newTestCache(0)
	if c != nil {
		t.Fatal("New(0) should return a nil (disabled) cache")
	}
	loads := 0
	for i := 0; i < 2; i++ {
		v, out, err := c.GetOrLoad(context.Background(), "k", func() ([]byte, error) {
			loads++
			return []byte("v"), nil
		})
		if err != nil || out != Miss || string(v) != "v" {
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
	if c.Invalidate(func(string) bool { return true }) != 0 {
		t.Error("nil cache invalidated entries")
	}
}

// TestCacheVersionChangeMisses: the caches key on a file's version, so a
// rewritten file's key differs from the old one only in it and must load
// anew while the old entry stays until it ages out.
func TestCacheVersionChangeMisses(t *testing.T) {
	c, _ := newTestCache(1000)
	loads := 0
	load := func() ([]byte, error) {
		loads++
		return []byte("v"), nil
	}
	c.GetOrLoad(context.Background(), "a/d@mtime1", load)
	if _, out, _ := c.GetOrLoad(context.Background(), "a/d@mtime2", load); out != Miss || loads != 2 {
		t.Errorf("changed version: outcome %v, loads %d", out, loads)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want both versions resident", c.Len())
	}
}

type loadResult struct {
	v   []byte
	out Outcome
	err error
}

// heldLoad starts a GetOrLoad of key whose load blocks until release is
// closed and then returns what finish returns; it comes back once the load
// is running. The call's results arrive on done.
func heldLoad(c *Cache[string, []byte], ctx context.Context, key string, finish func() ([]byte, error)) (release chan struct{}, done chan loadResult) {
	entered := make(chan struct{})
	release, done = make(chan struct{}), make(chan loadResult, 1)
	go func() {
		v, out, err := c.GetOrLoad(ctx, key, func() ([]byte, error) {
			close(entered)
			<-release
			return finish()
		})
		done <- loadResult{v, out, err}
	}()
	<-entered
	return release, done
}

// joinSpy is a context that tells when GetOrLoad begins waiting under
// it: the wait on a flight is the only place its Done is asked for.
type joinSpy struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (j *joinSpy) Done() <-chan struct{} {
	j.once.Do(func() { close(j.waiting) })
	return j.Context.Done()
}

// follow starts a GetOrLoad of key under ctx and comes back once it is
// waiting on the flight in progress.
func follow(c *Cache[string, []byte], ctx context.Context, key string, load func() ([]byte, error)) chan loadResult {
	spy := &joinSpy{Context: ctx, waiting: make(chan struct{})}
	done := make(chan loadResult, 1)
	go func() {
		v, out, err := c.GetOrLoad(spy, key, load)
		done <- loadResult{v, out, err}
	}()
	<-spy.waiting
	return done
}

func noLoad(t *testing.T) func() ([]byte, error) {
	return func() ([]byte, error) {
		t.Error("a waiter ran its own load while a flight was in progress")
		return nil, nil
	}
}

// TestWaiterHonoursItsOwnContext: a waiter whose context has ended comes
// back with its own error at once instead of waiting out somebody else's
// load, and the flight it left carries on and caches its result.
func TestWaiterHonoursItsOwnContext(t *testing.T) {
	c, m := newTestCache(1000)
	release, leader := heldLoad(c, context.Background(), "k", func() ([]byte, error) { return []byte("value"), nil })

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	select {
	case r := <-follow(c, expired, "k", noLoad(t)):
		if !errors.Is(r.err, context.DeadlineExceeded) || r.out != Coalesced || r.v != nil {
			t.Errorf("expired waiter got %q, %v, %v; want nil, coalesced, its deadline error", r.v, r.out, r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a waiter past its deadline is still waiting on the held load")
	}

	// One that is cancelled while it waits leaves at that moment.
	ctx, cancelWaiter := context.WithCancel(context.Background())
	waiter := follow(c, ctx, "k", noLoad(t))
	cancelWaiter()
	select {
	case r := <-waiter:
		if !errors.Is(r.err, context.Canceled) {
			t.Errorf("cancelled waiter got %v, want its cancellation", r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a cancelled waiter is still waiting on the held load")
	}

	close(release)
	if r := <-leader; r.err != nil || r.out != Miss || string(r.v) != "value" {
		t.Fatalf("leader got %q, %v, %v", r.v, r.out, r.err)
	}
	if v, ok := c.Get("k"); !ok || string(v) != "value" {
		t.Error("the flight its waiters abandoned did not cache its result")
	}
	if m.Misses.Value() != 1 || m.Coalesced.Value() != 2 {
		t.Errorf("misses/coalesced = %d/%d, want 1/2", m.Misses.Value(), m.Coalesced.Value())
	}
}

// TestFlightNeverHandsOnItsLeadersCancellation: when a load fails because
// the caller that happened to lead it went away, a waiter that is still
// live does not inherit that error — it goes again and gets the value. A
// load that failed on its own account is still every waiter's failure.
func TestFlightNeverHandsOnItsLeadersCancellation(t *testing.T) {
	c, m := newTestCache(1000)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	release, leader := heldLoad(c, leaderCtx, "k", func() ([]byte, error) { return nil, leaderCtx.Err() })
	waiter := follow(c, context.Background(), "k", func() ([]byte, error) { return []byte("second go"), nil })
	cancelLeader()
	close(release)
	if r := <-leader; !errors.Is(r.err, context.Canceled) {
		t.Errorf("cancelled leader got %v, want its own cancellation", r.err)
	}
	if r := <-waiter; r.err != nil || string(r.v) != "second go" || r.out != Miss {
		t.Errorf("live waiter got %q, %v, %v; want its own load's value, as a miss", r.v, r.out, r.err)
	}

	broken := errors.New("storage said no")
	release, leader = heldLoad(c, context.Background(), "bad", func() ([]byte, error) { return nil, broken })
	waiter = follow(c, context.Background(), "bad", noLoad(t))
	close(release)
	if r := <-leader; !errors.Is(r.err, broken) {
		t.Errorf("leader got %v, want the load's error", r.err)
	}
	if r := <-waiter; !errors.Is(r.err, broken) || r.out != Coalesced {
		t.Errorf("waiter got %v, %v; want the load's error, coalesced", r.err, r.out)
	}
	if c.Len() != 1 || m.Misses.Value() != 3 || m.Coalesced.Value() != 1 {
		t.Errorf("entries/misses/coalesced = %d/%d/%d, want 1/3/1", c.Len(), m.Misses.Value(), m.Coalesced.Value())
	}
}
