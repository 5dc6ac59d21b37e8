package cbl

import (
	"fmt"
	"slices"

	"ssmp/internal/fabric"
	"ssmp/internal/mem"
	"ssmp/internal/msg"
)

// waiter is one member of a lock queue: either holding the lock or waiting
// for it. Holders always form a prefix of the queue (grants are FIFO with
// read batching, so no requester ever overtakes an earlier one).
type waiter struct {
	node    int
	mode    msg.LockMode
	holding bool
	// seq is the requester's per-block acquisition epoch, echoed in the
	// LockFwd that links its successor so stale forwards are ignorable.
	seq uint64
}

// Home is the directory-side lock controller for the blocks homed at one
// node. It owns the queue-pointer state of the central directory (here the
// full queue mirror — see doc.go) and serializes every lock-state
// transition through the directory's service resource.
type Home struct {
	f       *fabric.Fabric
	id      int
	geom    mem.Geometry
	store   *mem.Store
	station fabric.Station
	// queues holds each locked block's queue; deferred holds releases
	// that arrived before the direct-handoff notification that makes
	// their sender a holder in the home's view (messages from different
	// sources are not mutually ordered), which re-apply as soon as the
	// enabling dequeue lands. A deferred message is a copy with its own
	// copy of its payload. Each map is nil until its first entry.
	queues   map[mem.Block][]waiter
	deferred map[mem.Block][]msg.Msg

	// Grants counts grants issued; Handoffs counts grants issued as a
	// result of a release (as opposed to immediate grants on request).
	Grants   uint64
	Handoffs uint64
}

// NewHome builds the home-side lock controller over the node's memory
// module (shared with the RUC home controller).
func NewHome(f *fabric.Fabric, id int, geom mem.Geometry, store *mem.Store) *Home {
	h := &Home{
		f: f, id: id, geom: geom, store: store,
		station: fabric.NewStation(f),
	}
	h.Reset()
	return h
}

// Reset returns the controller to the state NewHome builds: no lock queue
// or deferred release, the station idle, every counter zero (a grant still
// waiting out its memory read is the fabric's, which its own Reset drops).
// The store is kept; its owner resets it.
func (h *Home) Reset() {
	h.station.Reset()
	clear(h.queues)
	clear(h.deferred)
	h.Grants, h.Handoffs = 0, 0
}

// Queue returns (node, mode, holding) triples for the block's lock queue,
// front first. Intended for tests and invariant checks.
func (h *Home) Queue(b mem.Block) []struct {
	Node    int
	Mode    msg.LockMode
	Holding bool
} {
	q := h.queues[b]
	out := make([]struct {
		Node    int
		Mode    msg.LockMode
		Holding bool
	}, len(q))
	for i, w := range q {
		out[i] = struct {
			Node    int
			Mode    msg.LockMode
			Holding bool
		}{w.node, w.mode, w.holding}
	}
	return out
}

// Locked reports whether the block currently has holders or waiters.
func (h *Home) Locked(b mem.Block) bool { return len(h.queues[b]) > 0 }

// Handles reports whether the home controller consumes this message kind.
func (h *Home) Handles(k msg.Kind) bool {
	switch k {
	case msg.LockReq, msg.UnlockToHome, msg.LockDequeue:
		return true
	}
	return false
}

// Handle processes an inbound lock message after the central-directory
// check.
func (h *Home) Handle(m *msg.Msg) { h.station.Process(h, m) }

// OnDeliver implements sim.Receiver: the station's check is done.
func (h *Home) OnDeliver(m any) { h.process(m.(*msg.Msg)) }

func (h *Home) process(m *msg.Msg) {
	if h.geom.Home(m.Block) != h.id {
		panic(fmt.Sprintf("cbl: block %d handled by wrong home %d", m.Block, h.id))
	}
	switch m.Kind {
	case msg.LockReq:
		if h.inQueue(m.Block, m.Src) {
			// The node's previous release is still in flight behind a
			// direct-handoff notification: defer the new request too.
			h.deferMsg(m)
			return
		}
		h.request(m.Block, m.Src, m.Mode, m.Seq)
	case msg.UnlockToHome, msg.LockDequeue:
		if !h.holdingHere(m.Block, m.Src) {
			// The sender holds the lock via a direct handoff whose
			// notification is still in flight: defer until it lands.
			h.deferMsg(m)
			return
		}
		h.applyRelease(m)
		h.drainDeferred(m.Block)
	default:
		panic(fmt.Sprintf("cbl: home %d cannot handle %v", h.id, m.Kind))
	}
}

// deferMsg holds a copy of m, with its own copy of m's payload, until
// drainDeferred re-applies it.
func (h *Home) deferMsg(m *msg.Msg) {
	if h.deferred == nil {
		h.deferred = make(map[mem.Block][]msg.Msg)
	}
	d := *m
	d.Data = slices.Clone(m.Data)
	h.deferred[m.Block] = append(h.deferred[m.Block], d)
}

// allHoldingReaders reports whether every queue member is a holding reader.
func allHoldingReaders(q []waiter) bool {
	for _, w := range q {
		if !w.holding || w.mode != msg.LockRead {
			return false
		}
	}
	return true
}

func (h *Home) request(b mem.Block, node int, mode msg.LockMode, seq uint64) {
	q := h.queues[b]
	for _, w := range q {
		if w.node == node {
			panic(fmt.Sprintf("cbl: node %d re-requested lock on block %d", node, b))
		}
	}
	grant := len(q) == 0 || (mode == msg.LockRead && allHoldingReaders(q))
	if len(q) > 0 {
		// Build the distributed queue: forward the requester to the
		// current tail, which records its next pointer and notifies
		// the requester (§4.3, Figure 3). Seq carries the tail's own
		// acquisition epoch so a late forward cannot attach to a later
		// tenure of the same node.
		tail := q[len(q)-1]
		h.f.Send(msg.Msg{Kind: msg.LockFwd, Src: h.id, Dst: tail.node, Block: b, Requester: node, Mode: mode, Seq: tail.seq})
	}
	if h.queues == nil {
		h.queues = make(map[mem.Block][]waiter)
	}
	h.queues[b] = append(q, waiter{node: node, mode: mode, holding: grant, seq: seq})
	if grant {
		h.grant(b, node, mode)
	}
}

// grant sends the lock plus the protected block's data after the memory
// read time.
func (h *Home) grant(b mem.Block, node int, mode msg.LockMode) {
	h.Grants++
	h.f.SendBlockAfter(h.f.Time.TMem, msg.Msg{Kind: msg.LockGrant, Src: h.id, Dst: node, Block: b, Mode: mode}, h.store)
}

// holdingHere reports whether the home currently records node as a holder.
func (h *Home) holdingHere(b mem.Block, node int) bool {
	for _, w := range h.queues[b] {
		if w.node == node {
			return w.holding
		}
	}
	return false
}

// inQueue reports whether node is a queue member (holding or waiting).
func (h *Home) inQueue(b mem.Block, node int) bool {
	for _, w := range h.queues[b] {
		if w.node == node {
			return true
		}
	}
	return false
}

// applyRelease performs an applicable release message.
func (h *Home) applyRelease(m *msg.Msg) {
	if m.Kind == msg.UnlockToHome {
		h.store.Merge(m.Block, m.Data, m.Mask)
	}
	// Aux == 1 marks a direct handoff: the releaser already passed the
	// grant (and data custody) to its successor.
	h.release(m.Block, m.Src, m.Aux == 1)
}

// drainDeferred re-applies deferred messages enabled by a state change.
func (h *Home) drainDeferred(b mem.Block) {
	for {
		q := h.deferred[b]
		applied := false
		for i, m := range q {
			ok := false
			switch m.Kind {
			case msg.UnlockToHome, msg.LockDequeue:
				ok = h.holdingHere(b, m.Src)
			case msg.LockReq:
				ok = !h.inQueue(b, m.Src)
			default:
				panic(fmt.Sprintf("cbl: home %d deferred %v", h.id, m.Kind))
			}
			if !ok {
				continue
			}
			h.deferred[b] = slices.Delete(q, i, i+1)
			if len(h.deferred[b]) == 0 {
				delete(h.deferred, b)
			}
			if m.Kind == msg.LockReq {
				h.request(m.Block, m.Src, m.Mode, m.Seq)
			} else {
				h.applyRelease(&m)
			}
			applied = true
			break
		}
		if !applied {
			return
		}
	}
}

func (h *Home) release(b mem.Block, node int, handedOff bool) {
	q := h.queues[b]
	idx := -1
	for i, w := range q {
		if w.node == node {
			idx = i
			break
		}
	}
	if idx < 0 || !q[idx].holding {
		panic(fmt.Sprintf("cbl: release from node %d not holding block %d", node, b))
	}
	if handedOff {
		// Direct handoff: the releaser was a sole write holder (head)
		// and its successor — necessarily the next queue member, a
		// waiting writer — already received the grant.
		if idx != 0 || len(q) < 2 || q[1].holding || q[1].mode != msg.LockWrite {
			panic(fmt.Sprintf("cbl: inconsistent direct handoff from node %d on block %d", node, b))
		}
		q[1].holding = true
		h.Handoffs++
		head := q[1].node
		h.queues[b] = slices.Delete(q, 0, 1)
		// Pointer fidelity: the new head's prev becomes nil.
		h.f.Send(msg.Msg{Kind: msg.SetPrevPtr, Src: h.id, Dst: head, Block: b, Requester: msg.NoNeighbor, Mode: msg.LockRead})
		return
	}

	// Fix the distributed list up like deleting a node from a
	// doubly-linked list (§4.3). Mode LockRead on the splice messages
	// routes them to the lock cache rather than the data cache.
	prev, next := msg.NoNeighbor, msg.NoNeighbor
	if idx > 0 {
		prev = q[idx-1].node
	}
	if idx < len(q)-1 {
		next = q[idx+1].node
	}
	if prev != msg.NoNeighbor {
		h.f.Send(msg.Msg{Kind: msg.SetNextPtr, Src: h.id, Dst: prev, Block: b, Requester: next, Mode: msg.LockRead})
	}
	if next != msg.NoNeighbor {
		h.f.Send(msg.Msg{Kind: msg.SetPrevPtr, Src: h.id, Dst: next, Block: b, Requester: prev, Mode: msg.LockRead})
	}

	q = slices.Delete(q, idx, idx+1)
	h.queues[b] = q // an empty queue keeps its memory for the next lock
	if len(q) == 0 {
		return
	}

	// Grant wave: if no holders remain, grant the head waiter; a read
	// head pulls every consecutive read waiter with it ("the lock release
	// notification goes down the linked list until it meets a write-lock
	// requester").
	if q[0].holding {
		return
	}
	headMode := q[0].mode
	for i := range q {
		if q[i].holding {
			break
		}
		if i > 0 && (headMode != msg.LockRead || q[i].mode != msg.LockRead) {
			break
		}
		q[i].holding = true
		h.Handoffs++
		h.grant(b, q[i].node, q[i].mode)
		if headMode == msg.LockWrite {
			break
		}
	}
}
