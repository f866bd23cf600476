// Package bad violates the lockhold discipline in every way the
// analyzer detects: leaked locks, blocking calls while held, double
// locking. Channel operations under a lock are in blockinglock/bad.
package bad

import (
	"errors"
	"sync"
	"time"
)

var errFail = errors.New("fail")

type counter struct {
	mu sync.Mutex
	n  int
}

func missingUnlock(c *counter, fail bool) error {
	c.mu.Lock()
	if fail {
		return errFail
	}
	c.mu.Unlock()
	return nil
}

func sleepWhileHeld(c *counter) {
	c.mu.Lock()
	time.Sleep(time.Millisecond)
	c.mu.Unlock()
}

func doubleLock(c *counter) {
	c.mu.Lock()
	c.mu.Lock()
	c.mu.Unlock()
}

func leakAtEnd(c *counter) {
	c.mu.Lock()
	c.n++
}
