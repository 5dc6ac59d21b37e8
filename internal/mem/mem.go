// Package mem defines the shared-memory address model: word addresses,
// memory blocks (the unit of coherence), the mapping of blocks to home
// memory modules (the main memory is partitioned and distributed among the
// nodes, §4), and the word-granularity backing store used by the home
// controllers.
//
// The store merges writes at word granularity. This is the property the
// paper's per-word dirty bits rely on: when two caches write back different
// words of the same block, both updates survive (§3 issue 6).
package mem

import "fmt"

// Addr is a global word address.
type Addr uint64

// Word is the contents of one memory word.
type Word uint64

// Block identifies a memory block (cache line sized unit of coherence).
type Block uint64

// Geometry captures the address-space parameters shared by every component.
type Geometry struct {
	// BlockWords is the number of words per block (B in the paper;
	// Table 4 uses 4).
	BlockWords int
	// Nodes is the number of memory modules (one per processor node).
	Nodes int
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	if g.BlockWords < 1 {
		return fmt.Errorf("mem: BlockWords must be >= 1, got %d", g.BlockWords)
	}
	if g.Nodes < 1 {
		return fmt.Errorf("mem: Nodes must be >= 1, got %d", g.Nodes)
	}
	return nil
}

// BlockOf returns the block containing a word address.
func (g Geometry) BlockOf(a Addr) Block { return Block(uint64(a) / uint64(g.BlockWords)) }

// WordIndex returns the index of the word within its block.
func (g Geometry) WordIndex(a Addr) int { return int(uint64(a) % uint64(g.BlockWords)) }

// BaseAddr returns the address of a block's first word.
func (g Geometry) BaseAddr(b Block) Addr { return Addr(uint64(b) * uint64(g.BlockWords)) }

// Home returns the node whose memory module owns the block. Blocks are
// interleaved round-robin across modules.
func (g Geometry) Home(b Block) int { return int(uint64(b) % uint64(g.Nodes)) }

// DirtyMask is a per-word dirty bitmap for a block. Word i is dirty when bit
// i is set. Blocks wider than 64 words are not supported (the paper's blocks
// are 4 words).
type DirtyMask uint64

// Set marks word i dirty.
func (m *DirtyMask) Set(i int) { *m |= 1 << uint(i) }

// Has reports whether word i is dirty.
func (m DirtyMask) Has(i int) bool { return m&(1<<uint(i)) != 0 }

// Any reports whether any word is dirty.
func (m DirtyMask) Any() bool { return m != 0 }

// Count returns the number of dirty words.
func (m DirtyMask) Count() int {
	c := 0
	for v := m; v != 0; v &= v - 1 {
		c++
	}
	return c
}

// Full returns the mask with the first n words dirty.
func Full(n int) DirtyMask {
	if n >= 64 {
		return ^DirtyMask(0)
	}
	return DirtyMask(1)<<uint(n) - 1
}

// Store is the word-granularity backing store of one memory module. The
// zero value is not usable; use NewStore. Unwritten words read as zero.
type Store struct {
	geom   Geometry
	blocks map[Block][]Word // nil until the first block is touched
	spare  [][]Word         // zeroed blocks a Reset took out, reused before allocating
}

// NewStore returns an empty store for the given geometry.
func NewStore(g Geometry) *Store {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	s := &Store{geom: g}
	s.Reset()
	return s
}

// Reset empties the store, as NewStore builds it: every word reads zero and
// no block is touched. The blocks' memory is kept for the next blocks
// touched.
func (s *Store) Reset() {
	if len(s.blocks) == 0 {
		return
	}
	for _, blk := range s.blocks {
		clear(blk)
		s.spare = append(s.spare, blk)
	}
	clear(s.blocks)
}

// Geometry returns the store's geometry.
func (s *Store) Geometry() Geometry { return s.geom }

// Block returns block b's words in the store itself, touching the block if
// it is new. A sender hands them to fabric.Send, which copies them into its
// message; nothing may modify them or keep them.
func (s *Store) Block(b Block) []Word {
	blk, ok := s.blocks[b]
	if !ok {
		if s.blocks == nil {
			s.blocks = make(map[Block][]Word)
		}
		if k := len(s.spare); k > 0 {
			blk, s.spare = s.spare[k-1], s.spare[:k-1]
		} else {
			blk = make([]Word, s.geom.BlockWords)
		}
		s.blocks[b] = blk
	}
	return blk
}

// ReadBlock copies the block's contents into a fresh slice.
func (s *Store) ReadBlock(b Block) []Word {
	out := make([]Word, s.geom.BlockWords)
	copy(out, s.Block(b))
	return out
}

// ReadWord returns one word.
func (s *Store) ReadWord(a Addr) Word {
	return s.Block(s.geom.BlockOf(a))[s.geom.WordIndex(a)]
}

// WriteWord stores one word.
func (s *Store) WriteWord(a Addr, w Word) {
	s.Block(s.geom.BlockOf(a))[s.geom.WordIndex(a)] = w
}

// Merge writes only the words selected by mask from src into the block.
// This is the word-granularity write-back path: clean words in src are
// ignored, so concurrent write-backs of disjoint words compose.
func (s *Store) Merge(b Block, src []Word, mask DirtyMask) {
	if len(src) != s.geom.BlockWords {
		panic(fmt.Sprintf("mem: Merge src len %d, want %d", len(src), s.geom.BlockWords))
	}
	blk := s.Block(b)
	for i := range blk {
		if mask.Has(i) {
			blk[i] = src[i]
		}
	}
}

// WriteBlock replaces the whole block (mask = all words).
func (s *Store) WriteBlock(b Block, src []Word) {
	s.Merge(b, src, Full(s.geom.BlockWords))
}

// Blocks returns the number of blocks ever touched.
func (s *Store) Blocks() int { return len(s.blocks) }
