package cache

import (
	"testing"
	"testing/quick"

	"ssmp/internal/mem"
	"ssmp/internal/msg"
)

var g = mem.Geometry{BlockWords: 4, Nodes: 8}

func TestNewValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { New(g, 3, 2) },
		func() { New(g, 0, 2) },
		func() { New(g, 4, 0) },
		func() { NewLockCache(g, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid construction did not panic")
				}
			}()
			bad()
		}()
	}
}

func TestLookupMissThenHit(t *testing.T) {
	c := New(g, 4, 2)
	if c.Lookup(5) != nil {
		t.Fatal("lookup of empty cache hit")
	}
	l, _, ev := c.Allocate(5)
	if ev {
		t.Fatal("allocation in empty cache evicted")
	}
	l.Data[1] = 42
	got := c.Lookup(5)
	if got == nil || got.Data[1] != 42 {
		t.Fatal("lookup after allocate missed or lost data")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 miss", st)
	}
}

func TestPeekDoesNotCount(t *testing.T) {
	c := New(g, 4, 2)
	c.Allocate(5)
	c.Peek(5)
	c.Peek(6)
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Peek affected stats: %+v", st)
	}
}

func TestAllocateSameBlockPanics(t *testing.T) {
	c := New(g, 4, 2)
	c.Allocate(5)
	defer func() {
		if recover() == nil {
			t.Error("double allocate did not panic")
		}
	}()
	c.Allocate(5)
}

func TestLRUEviction(t *testing.T) {
	c := New(g, 1, 2) // one set, two ways
	c.Allocate(10)
	c.Allocate(20)
	c.Lookup(10) // 10 is now MRU; 20 is LRU
	_, v, ev := c.Allocate(30)
	if !ev || v.Block != 20 {
		t.Fatalf("evicted %v (ev=%v), want block 20", v.Block, ev)
	}
	if c.Peek(10) == nil || c.Peek(30) == nil || c.Peek(20) != nil {
		t.Fatal("cache contents wrong after eviction")
	}
}

func TestEvictionReportsDirtyAndUpdate(t *testing.T) {
	c := New(g, 1, 1)
	l, _, _ := c.Allocate(7)
	l.Data[2] = 99
	l.Dirty.Set(2)
	l.Update = true
	_, v, ev := c.Allocate(8)
	if !ev {
		t.Fatal("no eviction")
	}
	if !v.Dirty.Has(2) || v.Data[2] != 99 || !v.Update {
		t.Fatalf("victim = %+v, want dirty word 2 = 99 and update bit", v)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.DirtyEvictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestVictimDataIsACopy(t *testing.T) {
	c := New(g, 1, 1)
	l, _, _ := c.Allocate(7)
	l.Data[0] = 1
	nl, v, _ := c.Allocate(8)
	nl.Data[0] = 777
	if v.Data[0] != 1 {
		t.Fatal("victim data aliases the reused line")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(g, 4, 2)
	l, _, _ := c.Allocate(5)
	l.Dirty.Set(0)
	l.Data[0] = 11
	if !c.Invalidate(5) {
		t.Fatal("Invalidate of a cached block reported it absent")
	}
	if c.Peek(5) != nil {
		t.Fatal("block still present after invalidate")
	}
	if c.Invalidate(5) {
		t.Fatal("second invalidate reported present")
	}
}

func TestInvalidateClearsLockState(t *testing.T) {
	c := New(g, 4, 2)
	l, _, _ := c.Allocate(5)
	l.Mode = msg.LockWrite
	l.Held = true
	l.Next = 3
	c.Invalidate(5)
	l2, _, _ := c.Allocate(5)
	if l2.Mode != msg.LockNone || l2.Held || l2.Next != NoNode {
		t.Fatal("stale lock state after invalidate+reallocate")
	}
}

func TestAllocatedLineZeroFilled(t *testing.T) {
	c := New(g, 1, 1)
	l, _, _ := c.Allocate(1)
	l.Data[3] = 5
	c.Allocate(2) // evicts and reuses the line's backing array
	l2 := c.Peek(2)
	for i, w := range l2.Data {
		if w != 0 {
			t.Fatalf("reused line word %d = %d, want 0", i, w)
		}
	}
}

func TestForEach(t *testing.T) {
	c := New(g, 4, 2)
	c.Allocate(1)
	c.Allocate(2)
	c.Allocate(3)
	c.Invalidate(2)
	seen := map[mem.Block]bool{}
	c.ForEach(func(l *Line) { seen[l.Block] = true })
	if len(seen) != 2 || !seen[1] || !seen[3] {
		t.Fatalf("ForEach visited %v", seen)
	}

	// Sets are built in the order they are first allocated; ForEach must
	// still visit them in set order.
	c = New(g, 512, 1)
	for b := mem.Block(511); ; b-- {
		c.Allocate(b)
		if b == 0 {
			break
		}
	}
	var order []mem.Block
	c.ForEach(func(l *Line) { order = append(order, l.Block) })
	if len(order) != 512 {
		t.Fatalf("ForEach visited %d lines, want 512", len(order))
	}
	for i, b := range order {
		if b != mem.Block(i) {
			t.Fatalf("ForEach visit %d is block %d, want %d (set order)", i, b, i)
		}
	}
}

func TestSetsAreIndependent(t *testing.T) {
	c := New(g, 4, 1)
	// Blocks 0..3 map to distinct sets; filling one set must not evict
	// blocks in another.
	for b := mem.Block(0); b < 4; b++ {
		if _, _, ev := c.Allocate(b); ev {
			t.Fatalf("allocating block %d evicted", b)
		}
	}
	// Block 4 maps to set 0 and must evict exactly block 0.
	_, v, ev := c.Allocate(4)
	if !ev || v.Block != 0 {
		t.Fatalf("evicted %v, want block 0", v.Block)
	}
}

// Property: a cache never holds two lines for the same block, and never
// holds more lines than its capacity. The wide geometry spreads the blocks
// over many sets, so sets are built out of set order.
func TestQuickCacheInvariant(t *testing.T) {
	for _, geo := range []struct{ sets, ways, blocks int }{
		{4, 2, 32},
		{256, 2, 2048},
	} {
		f := func(ops []uint16) bool {
			c := New(g, geo.sets, geo.ways)
			for _, op := range ops {
				b := mem.Block(int(op) % geo.blocks)
				switch (op >> 11) % 3 {
				case 0:
					if c.Lookup(b) == nil {
						c.Allocate(b)
					}
				case 1:
					c.Lookup(b)
				case 2:
					c.Invalidate(b)
				}
				seen := map[mem.Block]int{}
				count := 0
				c.ForEach(func(l *Line) { seen[l.Block]++; count++ })
				if count > c.Capacity() {
					return false
				}
				for _, n := range seen {
					if n > 1 {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Fatalf("%d sets x %d ways: %v", geo.sets, geo.ways, err)
		}
	}
}

func TestLockCacheAllocateAndRelease(t *testing.T) {
	lc := NewLockCache(g, 2)
	a, err := lc.Allocate(1)
	if err != nil {
		t.Fatal(err)
	}
	a.Mode = msg.LockWrite
	if _, err := lc.Allocate(2); err != nil {
		t.Fatal(err)
	}
	if lc.InUse() != 2 {
		t.Fatalf("InUse = %d, want 2", lc.InUse())
	}
	if _, err := lc.Allocate(3); err != ErrLockCacheFull {
		t.Fatalf("Allocate on full = %v, want ErrLockCacheFull", err)
	}
	lc.Release(1)
	if lc.InUse() != 1 {
		t.Fatalf("InUse after release = %d", lc.InUse())
	}
	if _, err := lc.Allocate(3); err != nil {
		t.Fatalf("Allocate after release = %v", err)
	}
}

func TestLockCacheLookup(t *testing.T) {
	lc := NewLockCache(g, 4)
	l, _ := lc.Allocate(9)
	l.Data[0] = 5
	got := lc.Lookup(9)
	if got == nil || got.Data[0] != 5 {
		t.Fatal("lock cache lookup failed")
	}
	if lc.Lookup(10) != nil {
		t.Fatal("lookup of absent lock hit")
	}
}

func TestLockCacheReleaseAbsentIsNoop(t *testing.T) {
	lc := NewLockCache(g, 2)
	lc.Release(42) // never allocated: must not panic
	if lc.InUse() != 0 {
		t.Fatal("release on a never-allocated lock cache changed occupancy")
	}
	if _, err := lc.Allocate(1); err != nil {
		t.Fatal(err)
	}
	lc.Release(42) // absent from a built lock cache
	if lc.InUse() != 1 {
		t.Fatal("release of absent block changed occupancy")
	}
	if _, err := lc.Allocate(2); err != nil {
		t.Fatalf("Allocate of the last entry = %v", err)
	}
	if _, err := lc.Allocate(3); err != ErrLockCacheFull {
		t.Fatalf("Allocate on full = %v, want ErrLockCacheFull", err)
	}
}

func TestLockCacheDoubleAllocatePanics(t *testing.T) {
	lc := NewLockCache(g, 2)
	lc.Allocate(1)
	defer func() {
		if recover() == nil {
			t.Error("double lock-cache allocate did not panic")
		}
	}()
	lc.Allocate(1)
}

func TestLockCacheReleaseClearsState(t *testing.T) {
	lc := NewLockCache(g, 1)
	l, _ := lc.Allocate(1)
	l.Mode = msg.LockRead
	l.Held = true
	l.Next = 5
	l.Dirty.Set(1)
	lc.Release(1)
	l2, err := lc.Allocate(1)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Mode != msg.LockNone || l2.Held || l2.Next != NoNode || l2.Dirty.Any() {
		t.Fatalf("stale state after release: %+v", l2)
	}
}

func TestAccessors(t *testing.T) {
	c := New(g, 4, 2)
	if c.Sets() != 4 || c.Ways() != 2 || c.Capacity() != 8 {
		t.Fatal("geometry accessors wrong")
	}
	// A lock cache on which Allocate was never called reports its
	// configured capacity and behaves as if every entry were invalid.
	const entries = 3
	lc := NewLockCache(g, entries)
	if lc.Capacity() != entries || lc.InUse() != 0 {
		t.Fatalf("fresh lock cache: Capacity %d InUse %d, want %d and 0", lc.Capacity(), lc.InUse(), entries)
	}
	if lc.Lookup(1) != nil {
		t.Fatal("lookup in a fresh lock cache hit")
	}
	if lc.Stats().Misses != 1 {
		t.Fatal("lock cache stats wrong")
	}
	lc.Release(1)
	for b := mem.Block(1); b <= entries; b++ {
		if _, err := lc.Allocate(b); err != nil {
			t.Fatalf("Allocate %d of %d = %v", b, entries, err)
		}
	}
	if _, err := lc.Allocate(entries + 1); err != ErrLockCacheFull {
		t.Fatalf("Allocate beyond capacity = %v, want ErrLockCacheFull", err)
	}
	if lc.Capacity() != entries || lc.InUse() != entries {
		t.Fatalf("full lock cache: Capacity %d InUse %d, want %d and %d", lc.Capacity(), lc.InUse(), entries, entries)
	}
}
