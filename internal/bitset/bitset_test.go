package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	b := New(130) // crosses two word boundaries
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Errorf("bit %d set in fresh bitmap", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
	}
	if b.Count() != 8 {
		t.Errorf("Count = %d, want 8", b.Count())
	}
}

func TestLen(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		if got := New(n).Len(); got != n {
			t.Errorf("Len(%d) = %d", n, got)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(-1)
}

func TestOr(t *testing.T) {
	a := New(100)
	b := New(100)
	a.Set(3)
	b.Set(97)
	b.Set(3)
	a.Or(b)
	if !a.Get(3) || !a.Get(97) || a.Count() != 2 {
		t.Errorf("Or result wrong: count=%d", a.Count())
	}
}

func TestOrSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(10).Or(New(11))
}

func TestForEachOrder(t *testing.T) {
	b := New(200)
	want := []int{0, 5, 63, 64, 120, 199}
	for _, i := range want {
		b.Set(i)
	}
	var got []int
	b.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("ForEach[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestClone(t *testing.T) {
	a := New(70)
	a.Set(69)
	c := a.Clone()
	c.Set(1)
	if a.Get(1) {
		t.Error("clone aliases original")
	}
	if !c.Get(69) {
		t.Error("clone lost bits")
	}
}

func TestQuickCountMatchesReference(t *testing.T) {
	f := func(idxs []uint16) bool {
		b := New(1 << 16)
		ref := make(map[int]bool)
		for _, i := range idxs {
			b.Set(int(i))
			ref[int(i)] = true
		}
		if b.Count() != len(ref) {
			return false
		}
		ok := true
		b.ForEach(func(i int) {
			if !ref[i] {
				ok = false
			}
			delete(ref, i)
		})
		return ok && len(ref) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Kept: the benchmark trace has no bitset layer; popcount over a mask is folded into contour.select_* and core.encode_*.
func BenchmarkCount(b *testing.B) {
	bs := New(1 << 20)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<14; i++ {
		bs.Set(rng.Intn(1 << 20))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bs.Count()
	}
}
