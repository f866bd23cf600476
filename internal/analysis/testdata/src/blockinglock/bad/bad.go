// Package bad holds channel operations under a held mutex, the blocking
// cases the lockhold analyzer reports beside blocking calls.
package bad

import "sync"

type queue struct {
	mu sync.Mutex
	ch chan int
}

func sendWhileHeld(q *queue, v int) {
	q.mu.Lock()
	q.ch <- v
	q.mu.Unlock()
}

func receiveWhileHeld(q *queue) int {
	q.mu.Lock()
	v := <-q.ch
	q.mu.Unlock()
	return v
}

func blockingSelectWhileHeld(q *queue, done chan struct{}) {
	q.mu.Lock()
	defer q.mu.Unlock()
	select {
	case v := <-q.ch:
		_ = v
	case <-done:
	}
}
