// Package cache models the per-node private cache of the paper's machine
// (§4, Figure 2a). Every cache directory entry carries, beyond the usual
// tag/state, the fields the paper adds:
//
//   - per-word dirty bits d1..dk, so only dirty words are written back on
//     replacement (eliminating the false-sharing lost-update problem);
//   - an update bit, set by READ-UPDATE, marking the line as a subscriber to
//     reader-initiated coherence;
//   - a lock field plus prev/next pointers, used both for the update
//     subscriber list and for the distributed lock queue (the two uses are
//     mutually exclusive per block, discriminated by the central directory's
//     usage bit).
//
// The package also provides the small fully-associative lock cache of §4.3:
// lock lines must never be evicted while they participate in a queue, so
// they live in a dedicated structure whose capacity is a managed hardware
// resource.
package cache

import (
	"fmt"

	"ssmp/internal/mem"
	"ssmp/internal/msg"
)

// NoNode is the nil value for Prev/Next node pointers.
const NoNode = -1

// Line is one cache line plus its cache-directory entry.
type Line struct {
	// Block is the memory block cached here (the tag).
	Block mem.Block
	// Valid reports whether the line holds live data.
	Valid bool
	// Data is the line's contents (BlockWords words).
	Data []mem.Word
	// Dirty is the per-word dirty bitmap (d1..dk in Figure 2a).
	Dirty mem.DirtyMask
	// Update is the update bit: the line subscribes to reader-initiated
	// updates.
	Update bool
	// Excl marks exclusive ownership (used by the WBI baseline protocol;
	// the paper's own protocol does not need an exclusive state).
	Excl bool

	// Mode is the lock field: the mode held or requested on this line.
	Mode msg.LockMode
	// Held reports whether the lock grant has arrived (false = waiting).
	Held bool
	// Prev and Next are the node ids of this line's neighbours in the
	// distributed linked list (update subscribers or lock queue).
	Prev, Next int

	lru uint64
}

// ResetPointers clears the linked-list fields.
func (l *Line) ResetPointers() { l.Prev, l.Next = NoNode, NoNode }

// Stats counts cache events.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	// DirtyEvictions counts evictions that required a write-back.
	DirtyEvictions uint64
}

// Cache is a set-associative cache with LRU replacement within a set.
//
// A set's lines are built on the first Allocate that touches the set: a
// machine builds one cache per node, and most workloads touch a handful of
// sets per node, while the default 512x2 geometry would otherwise zero and
// hold 1,024 Lines per node up front. Up front the cache builds only its
// index, one int32 per set naming the set's slot in the list of sets built
// so far. The index holds no pointers, so the collector never scans it.
// Each set keeps its own two allocations (lines and their data backing),
// so a *Line stays valid for the cache's lifetime. A set not yet built
// behaves exactly like a set full of invalid lines, so the protocols
// cannot tell the difference.
type Cache struct {
	geom  mem.Geometry
	sets  int
	ways  int
	index []int32  // by set: 1 + the set's position in built, or 0
	built [][]Line // the sets built so far, in the order first allocated
	tick  uint64
	stats Stats
}

// New builds a cache of sets x ways lines. Sets must be a power of two.
func New(geom mem.Geometry, sets, ways int) *Cache {
	if sets < 1 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: sets must be a power of two, got %d", sets))
	}
	if ways < 1 {
		panic(fmt.Sprintf("cache: ways must be >= 1, got %d", ways))
	}
	c := &Cache{geom: geom, sets: sets, ways: ways, index: make([]int32, sets)}
	c.Reset()
	return c
}

// Reset returns the cache to the state New builds: no set built, every
// counter zero. The sets built so far stay in built's backing array, past
// its length, and are handed out again, invalidated, before any new set is
// built.
func (c *Cache) Reset() {
	if len(c.built) > 0 {
		clear(c.index)
		c.built = c.built[:0]
	}
	c.tick, c.stats = 0, Stats{}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Capacity returns the total number of lines.
func (c *Cache) Capacity() int { return c.sets * c.ways }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// set returns block b's set, or nil if the set has not been built
// (equivalent to a set full of invalid lines).
func (c *Cache) set(b mem.Block) []Line {
	if slot := c.index[uint64(b)&uint64(c.sets-1)]; slot != 0 {
		return c.built[slot-1]
	}
	return nil
}

// setAlloc returns block b's set, building it on first touch.
func (c *Cache) setAlloc(b mem.Block) []Line {
	if set := c.set(b); set != nil {
		return set
	}
	n := len(c.built)
	var set []Line
	if n < cap(c.built) && c.built[:n+1][n] != nil {
		set = c.built[:n+1][n] // built before the last Reset
		invalidate(set)
	} else {
		set = newLines(c.ways, c.geom.BlockWords)
	}
	c.built = append(c.built, set)
	c.index[uint64(b)&uint64(c.sets-1)] = int32(len(c.built))
	return set
}

// newLines returns n invalid lines over one backing array of line data,
// keeping a set or lock cache to two allocations.
func newLines(n, blockWords int) []Line {
	lines := make([]Line, n)
	backing := make([]mem.Word, n*blockWords)
	for i := range lines {
		lines[i].ResetPointers()
		lines[i].Data = backing[i*blockWords : (i+1)*blockWords : (i+1)*blockWords]
	}
	return lines
}

// invalidate makes used lines as newLines builds them: invalid,
// zero-filled and unlinked, each keeping its data slice. (newLines's fresh
// memory is already zero, so it only unlinks its lines.)
func invalidate(lines []Line) {
	for i := range lines {
		clear(lines[i].Data)
		lines[i] = Line{Data: lines[i].Data, Prev: NoNode, Next: NoNode}
	}
}

// Lookup returns the line holding block b, counting a hit or miss and
// refreshing LRU state. It returns nil on a miss.
func (c *Cache) Lookup(b mem.Block) *Line {
	set := c.set(b)
	for i := range set {
		if set[i].Valid && set[i].Block == b {
			c.stats.Hits++
			c.tick++
			set[i].lru = c.tick
			return &set[i]
		}
	}
	c.stats.Misses++
	return nil
}

// Peek returns the line holding block b without touching statistics or LRU
// state. It returns nil if the block is not cached.
func (c *Cache) Peek(b mem.Block) *Line {
	set := c.set(b)
	for i := range set {
		if set[i].Valid && set[i].Block == b {
			return &set[i]
		}
	}
	return nil
}

// Victim describes a line displaced by Allocate. The caller is responsible
// for writing back dirty words and unsubscribing an update line.
type Victim struct {
	Block  mem.Block
	Data   []mem.Word
	Dirty  mem.DirtyMask
	Update bool
}

// Allocate returns a line for block b, evicting the LRU way if the set is
// full. The returned line is valid, tagged with b, and zero-filled; the
// caller populates Data. If an eviction displaced live data, evicted is true
// and victim describes it (victim.Data is a copy and safe to retain).
//
// Allocate panics if b is already cached: the caller must Lookup first.
func (c *Cache) Allocate(b mem.Block) (line *Line, victim Victim, evicted bool) {
	set := c.setAlloc(b)
	var pick *Line
	for i := range set {
		if set[i].Valid && set[i].Block == b {
			panic(fmt.Sprintf("cache: Allocate of already-cached block %d", b))
		}
		switch {
		case !set[i].Valid:
			// An invalid way is always the preferred victim.
			if pick == nil || pick.Valid {
				pick = &set[i]
			}
		case pick == nil || (pick.Valid && set[i].lru < pick.lru):
			pick = &set[i]
		}
	}
	if pick.Valid {
		evicted = true
		c.stats.Evictions++
		if pick.Dirty.Any() {
			c.stats.DirtyEvictions++
		}
		victim = Victim{
			Block:  pick.Block,
			Data:   append([]mem.Word(nil), pick.Data...),
			Dirty:  pick.Dirty,
			Update: pick.Update,
		}
	}
	c.tick++
	data := pick.Data
	for i := range data {
		data[i] = 0
	}
	*pick = Line{Block: b, Valid: true, Data: data, Prev: NoNode, Next: NoNode, lru: c.tick}
	return pick, victim, evicted
}

// Invalidate drops block b from the cache and reports whether it was
// present. The line's words are left as they were, unread: whoever needs
// them reads the line before invalidating it.
func (c *Cache) Invalidate(b mem.Block) bool {
	set := c.set(b)
	for i := range set {
		if set[i].Valid && set[i].Block == b {
			set[i].Valid = false
			set[i].Dirty = 0
			set[i].Update = false
			set[i].Mode = msg.LockNone
			set[i].Held = false
			set[i].ResetPointers()
			return true
		}
	}
	return false
}

// ForEach calls fn for every valid line, in set order.
func (c *Cache) ForEach(fn func(*Line)) {
	for _, slot := range c.index {
		if slot == 0 {
			continue
		}
		set := c.built[slot-1]
		for i := range set {
			if set[i].Valid {
				fn(&set[i])
			}
		}
	}
}

// LockCache is the small fully-associative cache dedicated to lock variables
// (§4.3). Lines participating in a lock queue are pinned: they are never
// evicted, and allocation fails when every slot is pinned. The paper treats
// capacity as a compile-time-managed hardware resource; we surface
// exhaustion as an error so callers can model a conservative mapping.
//
// The lines and their data backing are built on the first Allocate, so a
// node that never takes a lock never builds them. A lock cache with no
// lines behaves exactly like one whose lines are all invalid, and Capacity
// reports the configured entries either way.
type LockCache struct {
	geom    mem.Geometry
	entries int
	lines   []Line // empty until the first Allocate
	tick    uint64
	stats   Stats
}

// NewLockCache builds a lock cache with the given number of entries.
func NewLockCache(geom mem.Geometry, entries int) *LockCache {
	if entries < 1 {
		panic(fmt.Sprintf("cache: lock cache entries must be >= 1, got %d", entries))
	}
	lc := &LockCache{geom: geom, entries: entries}
	lc.Reset()
	return lc
}

// Reset returns the lock cache to the state NewLockCache builds: no lines,
// every counter zero. Lines already built stay in the backing array and
// are handed out again, invalidated, by the next Allocate.
func (lc *LockCache) Reset() {
	lc.lines, lc.tick, lc.stats = lc.lines[:0], 0, Stats{}
}

// Capacity returns the number of entries.
func (lc *LockCache) Capacity() int { return lc.entries }

// InUse returns the number of live entries.
func (lc *LockCache) InUse() int {
	n := 0
	for i := range lc.lines {
		if lc.lines[i].Valid {
			n++
		}
	}
	return n
}

// Stats returns a snapshot of the counters.
func (lc *LockCache) Stats() Stats { return lc.stats }

// Lookup returns the lock line for block b, or nil.
func (lc *LockCache) Lookup(b mem.Block) *Line {
	for i := range lc.lines {
		if lc.lines[i].Valid && lc.lines[i].Block == b {
			lc.stats.Hits++
			lc.tick++
			lc.lines[i].lru = lc.tick
			return &lc.lines[i]
		}
	}
	lc.stats.Misses++
	return nil
}

// ErrLockCacheFull is returned when every lock-cache entry is pinned by an
// active lock. The paper's position is that software maps locks to this
// hardware resource conservatively so this never happens; surfacing it as an
// error lets tests and experiments probe the boundary.
var ErrLockCacheFull = fmt.Errorf("cache: lock cache full")

// Allocate returns a fresh line for block b. Because every valid lock line
// is by definition participating in a queue (or holding a lock), no eviction
// is possible: Allocate returns ErrLockCacheFull when all entries are live.
func (lc *LockCache) Allocate(b mem.Block) (*Line, error) {
	if len(lc.lines) == 0 {
		if cap(lc.lines) > 0 {
			lc.lines = lc.lines[:lc.entries]
			invalidate(lc.lines)
		} else {
			lc.lines = newLines(lc.entries, lc.geom.BlockWords)
		}
	}
	var pick *Line
	for i := range lc.lines {
		if lc.lines[i].Valid {
			if lc.lines[i].Block == b {
				panic(fmt.Sprintf("cache: lock-cache Allocate of live block %d", b))
			}
			continue
		}
		if pick == nil {
			pick = &lc.lines[i]
		}
	}
	if pick == nil {
		return nil, ErrLockCacheFull
	}
	lc.tick++
	data := pick.Data
	for i := range data {
		data[i] = 0
	}
	*pick = Line{Block: b, Valid: true, Data: data, Prev: NoNode, Next: NoNode, lru: lc.tick}
	return pick, nil
}

// Release frees the entry for block b (after the lock is fully released and
// any dirty words written back). Releasing an absent block is a no-op.
func (lc *LockCache) Release(b mem.Block) {
	for i := range lc.lines {
		if lc.lines[i].Valid && lc.lines[i].Block == b {
			lc.lines[i].Valid = false
			lc.lines[i].Dirty = 0
			lc.lines[i].Mode = msg.LockNone
			lc.lines[i].Held = false
			lc.lines[i].ResetPointers()
			return
		}
	}
}
