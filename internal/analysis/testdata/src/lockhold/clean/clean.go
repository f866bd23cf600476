// Package clean holds lock usage the lockhold analyzer must accept.
package clean

import (
	"context"
	"errors"
	"sync"
	"time"
)

var errFail = errors.New("fail")

type counter struct {
	mu  sync.Mutex
	rmu sync.RWMutex
	n   int
}

func deferred(c *counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func explicitBothPaths(c *counter, fail bool) error {
	c.mu.Lock()
	if fail {
		c.mu.Unlock()
		return errFail
	}
	c.n++
	c.mu.Unlock()
	return nil
}

func readLocked(c *counter) int {
	c.rmu.RLock()
	defer c.rmu.RUnlock()
	return c.n
}

func unlockBeforeBlocking(c *counter, ch chan int) {
	c.mu.Lock()
	n := c.n
	c.mu.Unlock()
	ch <- n
	time.Sleep(time.Millisecond)
}

func deferredClosure(c *counter) int {
	c.mu.Lock()
	defer func() {
		c.n++
		c.mu.Unlock()
	}()
	return c.n
}

func closureOwnLock(c *counter, ch chan int) {
	go func() {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
		ch <- c.n
	}()
}

// admissionShape mirrors an admission-control queue: the counter is
// updated under the lock, but the blocking select on the slot channel
// happens only after the explicit unlock.
func admissionShape(c *counter, slots chan struct{}, done chan struct{}) error {
	select {
	case slots <- struct{}{}:
		return nil
	default:
	}
	c.mu.Lock()
	if c.n > 8 {
		c.mu.Unlock()
		return errFail
	}
	c.n++
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.n--
		c.mu.Unlock()
	}()
	select {
	case slots <- struct{}{}:
		return nil
	case <-done:
		return errFail
	}
}

// drainShape mirrors a graceful drain: closing an idle channel while the
// lock is held never blocks, so it is fine under the mutex.
func drainShape(c *counter, idle chan struct{}) {
	c.mu.Lock()
	c.n--
	if c.n == 0 && idle != nil {
		close(idle)
	}
	c.mu.Unlock()
}

// breakerShape mirrors a circuit breaker: pure bookkeeping under the
// lock, with time arithmetic but no blocking operations.
func breakerShape(c *counter, now, openUntil time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n >= 3 && now.Before(openUntil) {
		return false
	}
	return true
}

type flight struct {
	done     chan struct{}
	orphaned bool
}

type cache struct {
	mu      sync.Mutex
	values  map[string]int
	flights map[string]*flight
}

// waitShape is a single-flight wait loop that unlocks before waiting
// and re-locks inside the select arm that goes round again. The re-lock
// happens on a path where the lock is released, so it is not a double
// lock, and the loop leaves with the lock held only on the path that
// falls out to the load below.
func waitShape(ctx context.Context, c *cache, key string) (int, error) {
	c.mu.Lock()
	for {
		if v, ok := c.values[key]; ok {
			c.mu.Unlock()
			return v, nil
		}
		f, ok := c.flights[key]
		if !ok {
			break
		}
		c.mu.Unlock()
		select {
		case <-f.done:
			if !f.orphaned {
				return 0, nil
			}
			c.mu.Lock()
			continue
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	c.flights[key] = &flight{done: make(chan struct{})}
	c.mu.Unlock()
	return 0, nil
}
