package mem

import (
	"testing"
	"testing/quick"
)

var g4 = Geometry{BlockWords: 4, Nodes: 8}

func TestGeometryValidate(t *testing.T) {
	if err := g4.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Geometry{BlockWords: 0, Nodes: 8}).Validate(); err == nil {
		t.Error("BlockWords=0 accepted")
	}
	if err := (Geometry{BlockWords: 4, Nodes: 0}).Validate(); err == nil {
		t.Error("Nodes=0 accepted")
	}
}

func TestBlockMapping(t *testing.T) {
	cases := []struct {
		a    Addr
		blk  Block
		idx  int
		home int
	}{
		{0, 0, 0, 0},
		{3, 0, 3, 0},
		{4, 1, 0, 1},
		{7, 1, 3, 1},
		{33, 8, 1, 0},
		{4*8 + 2, 8, 2, 0},
	}
	for _, c := range cases {
		if b := g4.BlockOf(c.a); b != c.blk {
			t.Errorf("BlockOf(%d) = %d, want %d", c.a, b, c.blk)
		}
		if i := g4.WordIndex(c.a); i != c.idx {
			t.Errorf("WordIndex(%d) = %d, want %d", c.a, i, c.idx)
		}
		if h := g4.Home(c.blk); h != c.home {
			t.Errorf("Home(%d) = %d, want %d", c.blk, h, c.home)
		}
	}
}

// Property: BaseAddr and BlockOf/WordIndex are inverses.
func TestQuickAddressRoundTrip(t *testing.T) {
	f := func(a uint32) bool {
		addr := Addr(a)
		b := g4.BlockOf(addr)
		return g4.BaseAddr(b)+Addr(g4.WordIndex(addr)) == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyMask(t *testing.T) {
	var m DirtyMask
	if m.Any() {
		t.Error("zero mask reports dirty")
	}
	m.Set(0)
	m.Set(3)
	if !m.Has(0) || !m.Has(3) || m.Has(1) {
		t.Errorf("mask bits wrong: %b", m)
	}
	if m.Count() != 2 {
		t.Errorf("Count = %d, want 2", m.Count())
	}
	if Full(4) != 0b1111 {
		t.Errorf("Full(4) = %b", Full(4))
	}
	if Full(64) != ^DirtyMask(0) {
		t.Errorf("Full(64) = %b", Full(64))
	}
	if Full(65) != ^DirtyMask(0) {
		t.Errorf("Full(65) = %b", Full(65))
	}
}

func TestStoreReadsZeroWhenUntouched(t *testing.T) {
	s := NewStore(g4)
	if w := s.ReadWord(123); w != 0 {
		t.Fatalf("untouched word = %d, want 0", w)
	}
	blk := s.ReadBlock(7)
	for i, w := range blk {
		if w != 0 {
			t.Fatalf("untouched block word %d = %d", i, w)
		}
	}
}

func TestStoreWordRoundTrip(t *testing.T) {
	s := NewStore(g4)
	s.WriteWord(13, 99)
	if w := s.ReadWord(13); w != 99 {
		t.Fatalf("ReadWord = %d, want 99", w)
	}
	// Neighbors in the same block are untouched.
	if w := s.ReadWord(12); w != 0 {
		t.Fatalf("neighbor word = %d, want 0", w)
	}
}

func TestStoreMergeRespectsMask(t *testing.T) {
	s := NewStore(g4)
	s.WriteBlock(5, []Word{1, 2, 3, 4})
	var m DirtyMask
	m.Set(1)
	m.Set(3)
	s.Merge(5, []Word{10, 20, 30, 40}, m)
	got := s.ReadBlock(5)
	want := []Word{1, 20, 3, 40}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after merge block = %v, want %v", got, want)
		}
	}
}

func TestFalseSharingWriteBacksCompose(t *testing.T) {
	// Two caches hold the same block; cache A wrote word 0, cache B wrote
	// word 2. With word-granularity merge both writes survive regardless
	// of write-back order. (This is the paper's §3 issue 6.)
	s := NewStore(g4)
	s.WriteBlock(9, []Word{100, 100, 100, 100})

	copyA := s.ReadBlock(9)
	copyB := s.ReadBlock(9)
	var dirtyA, dirtyB DirtyMask
	copyA[0] = 111
	dirtyA.Set(0)
	copyB[2] = 333
	dirtyB.Set(2)

	s.Merge(9, copyA, dirtyA)
	s.Merge(9, copyB, dirtyB)
	got := s.ReadBlock(9)
	want := []Word{111, 100, 333, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("block = %v, want %v (lost update!)", got, want)
		}
	}

	// Whole-block write-back order dependence, for contrast: merging with
	// Full mask would lose one of the updates.
	s2 := NewStore(g4)
	s2.WriteBlock(9, []Word{100, 100, 100, 100})
	s2.Merge(9, copyA, Full(4))
	s2.Merge(9, copyB, Full(4))
	if s2.ReadBlock(9)[0] == 111 {
		t.Fatal("full-mask merge unexpectedly preserved first write; test premise broken")
	}
}

// Property: merging any two disjoint dirty masks preserves both writes.
func TestQuickDisjointMergesCompose(t *testing.T) {
	f := func(a, b [4]uint8, maskBits uint8) bool {
		maskA := DirtyMask(maskBits & 0x0F)
		maskB := DirtyMask((maskBits >> 4) & 0x0F & ^uint8(maskBits&0x0F))
		s := NewStore(g4)
		blkA := make([]Word, 4)
		blkB := make([]Word, 4)
		for i := 0; i < 4; i++ {
			blkA[i] = Word(a[i]) + 1000
			blkB[i] = Word(b[i]) + 2000
		}
		s.Merge(3, blkA, maskA)
		s.Merge(3, blkB, maskB)
		got := s.ReadBlock(3)
		for i := 0; i < 4; i++ {
			switch {
			case maskB.Has(i):
				if got[i] != blkB[i] {
					return false
				}
			case maskA.Has(i):
				if got[i] != blkA[i] {
					return false
				}
			default:
				if got[i] != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReadBlockIsACopy(t *testing.T) {
	s := NewStore(g4)
	s.WriteBlock(1, []Word{1, 2, 3, 4})
	blk := s.ReadBlock(1)
	blk[0] = 999
	if s.ReadWord(g4.BaseAddr(1)) != 1 {
		t.Fatal("ReadBlock aliases the store")
	}
}

func TestBlockIsTheStores(t *testing.T) {
	s := NewStore(g4)
	blk := s.Block(2)
	if len(blk) != 4 || s.Blocks() != 1 {
		t.Fatalf("Block of a new block: %v, %d blocks touched", blk, s.Blocks())
	}
	s.WriteWord(g4.BaseAddr(2)+1, 7)
	if blk[1] != 7 {
		t.Fatal("Block does not show a later write")
	}
}

func TestBlocksCounter(t *testing.T) {
	s := NewStore(g4)
	s.WriteWord(0, 1)
	s.WriteWord(1, 1)  // same block
	s.WriteWord(40, 1) // different block
	if s.Blocks() != 2 {
		t.Fatalf("Blocks = %d, want 2", s.Blocks())
	}
}
