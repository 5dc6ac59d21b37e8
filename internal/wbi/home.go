package wbi

import (
	"fmt"
	"math/bits"

	"ssmp/internal/fabric"
	"ssmp/internal/mem"
	"ssmp/internal/msg"
	"ssmp/internal/sim"
)

// dirEntry is the central directory's state for one block.
type dirEntry struct {
	owner int // exclusive owner, -1 if none
	// sharers holds the shared copies (a superset: silent S evictions
	// leave stale bits), one bit per node.
	sharers nodeSet
	// broadcast is the limited-directory overflow bit (Dir-i-B): the
	// pointer set overflowed, so an exclusive request must invalidate by
	// broadcast.
	broadcast bool
	// busy marks a read-forward in flight (awaiting the owner's memory
	// update); requests queue behind it, as copies.
	busy  bool
	waitQ []msg.Msg
}

// nodeSet is a set of node ids, one bit each.
type nodeSet []uint64

func newNodeSet(nodes int) nodeSet { return make(nodeSet, (nodes+63)/64) }

func (s nodeSet) add(n int)    { s[n/64] |= 1 << (n % 64) }
func (s nodeSet) remove(n int) { s[n/64] &^= 1 << (n % 64) }

// len returns the number of nodes in the set.
func (s nodeSet) len() int {
	c := 0
	for _, w := range s {
		c += bits.OnesCount64(w)
	}
	return c
}

// next returns the least node in the set at or above n, or -1 if there is
// none: for n := s.next(0); n >= 0; n = s.next(n + 1) visits the set in
// ascending order.
func (s nodeSet) next(n int) int {
	for i := n / 64; i < len(s); i++ {
		w := s[i]
		if i == n/64 {
			w &= ^uint64(0) << (n % 64)
		}
		if w != 0 {
			return 64*i + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Home is the directory-side WBI controller for the blocks homed at one
// node.
type Home struct {
	f       *fabric.Fabric
	id      int
	geom    mem.Geometry
	store   *mem.Store
	station fabric.Station
	dir     map[mem.Block]*dirEntry // nil until the first entry
	spare   []*dirEntry             // emptied entries a Reset took out, reused before allocating
	// replies holds the data replies waiting out the memory read.
	replies replies

	// MaxPointers caps the per-block sharer pointer count (the Dir-i-B
	// limited directory the paper's directory-scalability discussion
	// refers to, citing Stenström's survey). When the pointer set would
	// overflow, the entry degrades to a broadcast bit and an exclusive
	// request invalidates every node. 0 means a full map.
	MaxPointers int

	// InvSent counts invalidations issued (storm visibility);
	// Broadcasts counts overflow invalidation rounds.
	InvSent    uint64
	Broadcasts uint64
}

// NewHome builds the directory-side WBI controller over the node's memory
// module.
func NewHome(f *fabric.Fabric, id int, geom mem.Geometry, store *mem.Store) *Home {
	h := &Home{f: f, id: id, geom: geom, store: store, station: fabric.NewStation(f)}
	h.replies.h = h
	h.Reset()
	return h
}

// Reset returns the controller to the state NewHome builds: an empty
// directory, no reply in flight, the station idle and every counter zero.
// The store (reset by its owner) and MaxPointers are kept, and so are the
// directory's entries, emptied, with their sharer sets and wait queues,
// for the next blocks the directory tracks.
func (h *Home) Reset() {
	h.station.Reset()
	for _, e := range h.dir {
		clear(e.sharers)
		clear(e.waitQ)
		*e = dirEntry{owner: -1, sharers: e.sharers, waitQ: e.waitQ[:0]}
		h.spare = append(h.spare, e)
	}
	clear(h.dir)
	h.replies.reset()
	h.InvSent, h.Broadcasts = 0, 0
}

// Store exposes the backing store.
func (h *Home) Store() *mem.Store { return h.store }

func (h *Home) entry(b mem.Block) *dirEntry {
	e, ok := h.dir[b]
	if !ok {
		if k := len(h.spare); k > 0 {
			e, h.spare = h.spare[k-1], h.spare[:k-1]
		} else {
			e = &dirEntry{owner: -1, sharers: newNodeSet(h.geom.Nodes)}
		}
		if h.dir == nil {
			h.dir = make(map[mem.Block]*dirEntry)
		}
		h.dir[b] = e
	}
	return e
}

// Owner returns the current exclusive owner of a block, or -1.
func (h *Home) Owner(b mem.Block) int { return h.entry(b).owner }

// Sharers returns the directory's (inclusive) sharer set for a block, in
// ascending node order.
func (h *Home) Sharers(b mem.Block) []int {
	var out []int
	s := h.entry(b).sharers
	for n := s.next(0); n >= 0; n = s.next(n + 1) {
		out = append(out, n)
	}
	return out
}

// Handles reports whether the home controller consumes this message kind.
func (h *Home) Handles(k msg.Kind) bool {
	switch k {
	case msg.GetS, msg.GetX, msg.PutX, msg.OwnerDataMem:
		return true
	}
	return false
}

// Handle processes an inbound message after the central-directory check.
func (h *Home) Handle(m *msg.Msg) { h.station.Process(h, m) }

// OnDeliver implements sim.Receiver: the station's check is done.
func (h *Home) OnDeliver(m any) { h.process(m.(*msg.Msg)) }

// addSharer records a sharer pointer, degrading to the broadcast bit on
// limited-directory overflow.
func (h *Home) addSharer(e *dirEntry, n int) {
	if e.broadcast {
		return
	}
	e.sharers.add(n)
	if h.MaxPointers > 0 && e.sharers.len() > h.MaxPointers {
		e.broadcast = true
		clear(e.sharers)
	}
}

func (h *Home) process(m *msg.Msg) {
	if h.geom.Home(m.Block) != h.id {
		panic(fmt.Sprintf("wbi: block %d handled by wrong home %d", m.Block, h.id))
	}
	switch m.Kind {
	case msg.GetS, msg.GetX:
		e := h.entry(m.Block)
		if e.busy || e.owner == m.Src {
			// A forward is in flight, or the requester's own
			// write-back hasn't arrived yet: queue a copy and retry
			// when the state settles.
			q := *m
			q.Data = nil // a request carries no payload
			e.waitQ = append(e.waitQ, q)
			return
		}
		if m.Kind == msg.GetS {
			h.gets(e, m)
		} else {
			h.getx(e, m)
		}

	case msg.PutX:
		e := h.entry(m.Block)
		if e.owner == m.Src {
			h.store.Merge(m.Block, m.Data, m.Mask)
			e.owner = -1
		}
		// A PutX from a stale owner raced with an ownership transfer;
		// its data is superseded and discarded.
		h.f.Send(msg.Msg{Kind: msg.PutAck, Src: h.id, Dst: m.Src, Block: m.Block})
		h.drain(e)

	case msg.OwnerDataMem:
		// Owner downgraded (served a forwarded read): memory becomes
		// current, ownership dissolves into sharing.
		e := h.entry(m.Block)
		h.store.Merge(m.Block, m.Data, m.Mask)
		if e.owner == m.Src {
			if m.Aux == 1 {
				// The owner served from its write-back buffer
				// and retains no copy.
				e.sharers.remove(m.Src)
			} else {
				h.addSharer(e, m.Src)
			}
			e.owner = -1
		}
		e.busy = false
		h.drain(e)

	default:
		panic(fmt.Sprintf("wbi: home %d cannot handle %v", h.id, m.Kind))
	}
}

// gets services a read request with the directory not busy and the
// requester not the stale owner.
func (h *Home) gets(e *dirEntry, m *msg.Msg) {
	if e.owner >= 0 {
		// Forward to the dirty owner; it supplies the requester and
		// updates memory. The directory is busy until the memory
		// update arrives.
		e.busy = true
		h.addSharer(e, m.Src)
		h.f.Send(msg.Msg{Kind: msg.FwdGetS, Src: h.id, Dst: e.owner, Block: m.Block, Requester: m.Src})
		return
	}
	h.addSharer(e, m.Src)
	h.replies.after(h.f.Time.TMem, msg.Msg{Kind: msg.DataS, Src: h.id, Dst: m.Src, Block: m.Block})
}

// getx services an exclusive request.
func (h *Home) getx(e *dirEntry, m *msg.Msg) {
	if e.owner >= 0 {
		// Ownership transfers through the current owner.
		h.f.Send(msg.Msg{Kind: msg.FwdGetX, Src: h.id, Dst: e.owner, Block: m.Block, Requester: m.Src})
		e.owner = m.Src
		return
	}
	// Invalidate every shared copy; acks flow directly to the requester.
	acks := 0
	if e.broadcast {
		// Overflowed limited directory: invalidate by broadcast.
		h.Broadcasts++
		for n := 0; n < h.geom.Nodes; n++ {
			if n == m.Src {
				continue
			}
			acks++
			h.InvSent++
			h.f.Send(msg.Msg{Kind: msg.Inv, Src: h.id, Dst: n, Block: m.Block, Requester: m.Src})
		}
	} else {
		// Ascending node order: a deterministic invalidation order.
		for n := e.sharers.next(0); n >= 0; n = e.sharers.next(n + 1) {
			if n == m.Src {
				continue
			}
			acks++
			h.InvSent++
			h.f.Send(msg.Msg{Kind: msg.Inv, Src: h.id, Dst: n, Block: m.Block, Requester: m.Src})
		}
	}
	e.broadcast = false
	clear(e.sharers)
	e.owner = m.Src
	h.replies.after(h.f.Time.TMem, msg.Msg{Kind: msg.DataX, Src: h.id, Dst: m.Src, Block: m.Block, Acks: acks})
}

// replies is a slot table of the data replies waiting out the memory read;
// a reply's slot rides in its typed event's arg, so a reply allocates
// nothing once the table has grown to the most replies ever in flight at
// once.
type replies struct {
	h     *Home
	slots []msg.Msg
	free  []uint64
}

// reset empties the table, keeping its memory.
func (r *replies) reset() {
	clear(r.slots)
	r.slots, r.free = r.slots[:0], r.free[:0]
}

// after sends m, carrying its block's data as memory holds it then, d
// cycles from now. It draws the same time, sequence number and jitter key
// as the closure form eng.After would.
func (r *replies) after(d sim.Time, m msg.Msg) {
	var i uint64
	if k := len(r.free); k > 0 {
		i, r.free = r.free[k-1], r.free[:k-1]
		r.slots[i] = m
	} else {
		i = uint64(len(r.slots))
		r.slots = append(r.slots, m)
	}
	r.h.f.Eng.AfterStep(d, r, i)
}

// OnStep implements sim.Stepper: slot i's reply reads its block and goes
// out.
func (r *replies) OnStep(i uint64) {
	m := r.slots[i]
	r.slots[i] = msg.Msg{}
	r.free = append(r.free, i)
	m.Data = r.h.store.Block(m.Block)
	r.h.f.Send(m)
}

// drain retries queued requests after a state change: it serves them in
// order until one is still blocked, which stays at the head of the queue
// with those behind it.
func (h *Home) drain(e *dirEntry) {
	i := 0
	for ; i < len(e.waitQ) && !e.busy; i++ {
		m := &e.waitQ[i]
		if e.owner == m.Src {
			break
		}
		switch m.Kind {
		case msg.GetS:
			h.gets(e, m)
		case msg.GetX:
			h.getx(e, m)
		default:
			panic(fmt.Sprintf("wbi: home %d queued %v", h.id, m.Kind))
		}
	}
	if i > 0 {
		n := copy(e.waitQ, e.waitQ[i:])
		clear(e.waitQ[n:])
		e.waitQ = e.waitQ[:n]
	}
}

// BroadcastMode reports whether the block's directory entry has overflowed
// to broadcast invalidation (tests and diagnostics).
func (h *Home) BroadcastMode(b mem.Block) bool { return h.entry(b).broadcast }
