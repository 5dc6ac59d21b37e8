package synczoo

import (
	"fmt"

	"ssmp/internal/core"
	"ssmp/internal/mem"
)

// DisseminationBarrier is the classic O(P log P)-message, O(log P)-latency
// barrier: in round r, processor i signals processor (i + 2^r) mod P and
// waits for the signal from (i - 2^r) mod P. Every (processor, round) flag
// occupies a block of its own and has a single writer, so each spinner
// busy-waits on its own cached line — one invalidation per round per
// episode. Flags carry a generation count instead of a sense bit, so the
// barrier is reusable without reset traffic.
//
// Participants are processors 0..P-1. The per-processor generation counters
// are host-side bookkeeping (the simulator runs one processor program at a
// time, so no synchronization is needed); the signalled state itself
// lives entirely in simulated memory.
type DisseminationBarrier struct {
	flags        mem.Addr
	blockWords   int
	participants int
	rounds       int
	gen          []uint64
}

// NewDisseminationBarrier lays out a dissemination barrier for procs
// participants in the arena.
func NewDisseminationBarrier(a *Arena, procs int) *DisseminationBarrier {
	if procs < 1 {
		panic(fmt.Sprintf("synczoo: dissemination barrier with %d participants", procs))
	}
	rounds := 0
	for 1<<rounds < procs {
		rounds++
	}
	b := &DisseminationBarrier{
		blockWords:   a.Geometry().BlockWords,
		participants: procs,
		rounds:       rounds,
		gen:          make([]uint64, procs),
	}
	if rounds > 0 {
		b.flags = a.Blocks(procs * rounds)
	}
	return b
}

// flag returns the address processor i spins on in round r.
func (b *DisseminationBarrier) flag(i, r int) mem.Addr {
	return b.flags + mem.Addr((i*b.rounds+r)*b.blockWords)
}

// Wait runs the log-P signalling rounds.
func (b *DisseminationBarrier) Wait(p *core.Proc) {
	me := p.Id()
	b.gen[me]++
	g := mem.Word(b.gen[me])
	for r := 0; r < b.rounds; r++ {
		peer := (me + 1<<r) % b.participants
		p.Write(b.flag(peer, r), g)
		p.Spin(core.OpRead, b.flag(me, r), core.WhileBelow, g)
	}
}

// Name identifies the algorithm.
func (b *DisseminationBarrier) Name() string { return "WBI-dissem" }

// TreeBarrier is a 4-ary arrival/wakeup tree barrier in the style of
// Mellor-Crummey & Scott: processor i's parent is (i-1)/4 and its children
// are 4i+1..4i+4. On arrival a processor waits for its children, then sets
// its own arrival flag (spun on only by its parent); the root then releases
// its children by writing their wake flags, and the wakeup fans back down
// the tree. Every flag lives in its own block with a single writer and —
// for the wake flags — a single spinner, so each release invalidates
// exactly one cache. Generation counts make the barrier reusable.
type TreeBarrier struct {
	arriveBase   mem.Addr
	wakeBase     mem.Addr
	blockWords   int
	participants int
	gen          []uint64
}

// NewTreeBarrier lays out a 4-ary tree barrier for procs participants.
func NewTreeBarrier(a *Arena, procs int) *TreeBarrier {
	if procs < 1 {
		panic(fmt.Sprintf("synczoo: tree barrier with %d participants", procs))
	}
	return &TreeBarrier{
		arriveBase:   a.Blocks(procs),
		wakeBase:     a.Blocks(procs),
		blockWords:   a.Geometry().BlockWords,
		participants: procs,
		gen:          make([]uint64, procs),
	}
}

func (b *TreeBarrier) arrive(i int) mem.Addr {
	return b.arriveBase + mem.Addr(i*b.blockWords)
}

func (b *TreeBarrier) wake(i int) mem.Addr {
	return b.wakeBase + mem.Addr(i*b.blockWords)
}

func (b *TreeBarrier) children(i int) []int {
	var c []int
	for k := 4*i + 1; k <= 4*i+4 && k < b.participants; k++ {
		c = append(c, k)
	}
	return c
}

// Wait gathers arrivals up the tree and fans the wakeup back down.
func (b *TreeBarrier) Wait(p *core.Proc) {
	me := p.Id()
	b.gen[me]++
	g := mem.Word(b.gen[me])
	for _, c := range b.children(me) {
		p.Spin(core.OpRead, b.arrive(c), core.WhileBelow, g)
	}
	if me != 0 {
		p.Write(b.arrive(me), g)
		p.Spin(core.OpRead, b.wake(me), core.WhileBelow, g)
	}
	for _, c := range b.children(me) {
		p.Write(b.wake(c), g)
	}
}

// Name identifies the algorithm.
func (b *TreeBarrier) Name() string { return "WBI-tree4" }

// RUCDisseminationBarrier is the dissemination barrier restated in the CBL
// machine's Table-1 primitives: signals are WRITE-GLOBALs and each spinner
// subscribes to its own flag line with READ-UPDATE, so the home's update
// propagation refreshes the cached copy in place and the spin loop runs as
// local hits — the reader-initiated analogue of invalidate-and-refetch.
// Arrival flushes the write buffer first (a CP-Synch operation, like the
// hardware barrier), so every global write issued before the barrier is
// performed before any signal is observable.
type RUCDisseminationBarrier struct {
	flags        mem.Addr
	blockWords   int
	participants int
	rounds       int
	gen          []uint64
}

// NewRUCDisseminationBarrier lays out the CBL dissemination barrier.
func NewRUCDisseminationBarrier(a *Arena, procs int) *RUCDisseminationBarrier {
	if procs < 1 {
		panic(fmt.Sprintf("synczoo: ruc dissemination barrier with %d participants", procs))
	}
	rounds := 0
	for 1<<rounds < procs {
		rounds++
	}
	b := &RUCDisseminationBarrier{
		blockWords:   a.Geometry().BlockWords,
		participants: procs,
		rounds:       rounds,
		gen:          make([]uint64, procs),
	}
	if rounds > 0 {
		b.flags = a.Blocks(procs * rounds)
	}
	return b
}

func (b *RUCDisseminationBarrier) flag(i, r int) mem.Addr {
	return b.flags + mem.Addr((i*b.rounds+r)*b.blockWords)
}

// Wait flushes the write buffer, then runs the signalling rounds over
// READ-UPDATE-subscribed lines.
func (b *RUCDisseminationBarrier) Wait(p *core.Proc) {
	p.FlushBuffer()
	me := p.Id()
	b.gen[me]++
	g := mem.Word(b.gen[me])
	for r := 0; r < b.rounds; r++ {
		peer := (me + 1<<r) % b.participants
		p.WriteGlobal(b.flag(peer, r), g)
		p.Spin(core.OpReadUpdate, b.flag(me, r), core.WhileBelow, g)
	}
}

// Name identifies the algorithm.
func (b *RUCDisseminationBarrier) Name() string { return "CBL-ruc-dissem" }
