// Package clean holds channel usage around a mutex that the lockhold
// analyzer must accept.
package clean

import "sync"

type queue struct {
	mu sync.Mutex
	n  int
	ch chan int
}

// sendOutsideCritical releases the lock before the blocking select.
func sendOutsideCritical(q *queue, v int, done chan struct{}) {
	q.mu.Lock()
	q.n++
	q.mu.Unlock()
	select {
	case q.ch <- v:
	case <-done:
	}
}

// tryPop uses a select with a default case under the lock: it never
// blocks.
func tryPop(q *queue) (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	select {
	case v := <-q.ch:
		return v, true
	default:
		return 0, false
	}
}

// nakedSend sends with no lock held: lockhold has nothing to say about
// a channel operation outside a critical section.
func nakedSend(ch chan int, v int) {
	ch <- v
}
