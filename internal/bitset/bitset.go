// Package bitset provides a dense bitmap used to mark selected grid
// points. The NDP pre-filter produces one bit per mesh point; the block
// bitmap payload encoding ships runs of these bits over the wire.
package bitset

import (
	"fmt"
	"math/bits"
)

// Bitset is a fixed-size bitmap.
type Bitset struct {
	n     int
	words []uint64
}

// New returns a bitmap of n bits, all clear.
func New(n int) *Bitset {
	if n < 0 {
		// A caller bug, not request data: sizes come from validated grid dims.
		panic(fmt.Sprintf("bitset: negative size %d", n))
	}
	return &Bitset{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the bitmap's size in bits.
func (b *Bitset) Len() int { return b.n }

// Set sets bit i.
func (b *Bitset) Set(i int) { b.words[i>>6] |= 1 << (i & 63) }

// Get reports bit i.
func (b *Bitset) Get(i int) bool { return b.words[i>>6]&(1<<(i&63)) != 0 }

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Or merges o into b. Both must have the same length.
func (b *Bitset) Or(o *Bitset) {
	if b.n != o.n {
		// Both bitmaps derive from the same grid's point count.
		panic(fmt.Sprintf("bitset: size mismatch %d != %d", b.n, o.n))
	}
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// Words exposes the underlying words (read-only use).
func (b *Bitset) Words() []uint64 { return b.words }

// ForEach calls fn with each set bit index in ascending order.
func (b *Bitset) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			fn(wi<<6 + bit)
			w &= w - 1
		}
	}
}

// Clone returns a copy of b.
func (b *Bitset) Clone() *Bitset {
	words := make([]uint64, len(b.words))
	copy(words, b.words)
	return &Bitset{n: b.n, words: words}
}
