package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// ringCapacity is the size of the process-wide span and event rings.
const ringCapacity = 4096

// ring keeps the most recent values in a fixed number of slots, each
// with its own lock. A write takes one atomic increment plus one slot
// lock — no global lock — so concurrent writers contend only when they
// land on the same slot; a read returns the retained values ordered by
// sequence number, oldest first.
type ring[T any] struct {
	seq   atomic.Uint64
	slots []ringSlot[T]
}

type ringSlot[T any] struct {
	mu  sync.Mutex
	seq uint64 // 0 = never written
	v   T
}

func newRing[T any](capacity int) *ring[T] {
	return &ring[T]{slots: make([]ringSlot[T], max(capacity, 1))}
}

// next hands out the next sequence number (1-based) for put.
func (r *ring[T]) next() uint64 { return r.seq.Add(1) }

// put stores v under seq, which next handed out. A writer that fell a
// whole lap behind does not overwrite its slot's newer value.
func (r *ring[T]) put(seq uint64, v T) {
	s := &r.slots[(seq-1)%uint64(len(r.slots))]
	s.mu.Lock()
	if seq > s.seq {
		s.seq, s.v = seq, v
	}
	s.mu.Unlock()
}

// read returns the retained values that keep accepts, oldest first. The
// slots are in order but for the one point where the ring wraps, so this
// sorts in O(n log n); an insertion sort would take a quadratic number of
// moves on the rotation.
func (r *ring[T]) read(keep func(*T) bool) []T {
	type entry struct {
		seq uint64
		v   T
	}
	got := make([]entry, 0, 64)
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		e := entry{s.seq, s.v}
		s.mu.Unlock()
		if e.seq != 0 && keep(&e.v) {
			got = append(got, e)
		}
	}
	sort.Slice(got, func(i, j int) bool { return got[i].seq < got[j].seq })
	out := make([]T, len(got))
	for i := range got {
		out[i] = got[i].v
	}
	return out
}
