// Package broken fails to type-check; lockhold must still run over
// the partial AST without crashing and the typecheck pseudo-analyzer
// carries the error.
package broken

import "sync"

var bogus undefinedType

func sendWhileHeld(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	ch <- 1
	mu.Unlock()
}
