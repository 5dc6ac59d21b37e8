package cbl

import (
	"errors"
	"fmt"

	"ssmp/internal/cache"
	"ssmp/internal/fabric"
	"ssmp/internal/mem"
	"ssmp/internal/msg"
)

// ErrLockCacheFull is returned when every lock-cache entry is pinned by an
// active lock; software is expected to map locks conservatively so this does
// not occur (§4.3).
var ErrLockCacheFull = errors.New("cbl: lock cache full")

// ErrAlreadyHeld is returned when a node re-requests a lock it already
// holds or is already waiting for.
var ErrAlreadyHeld = errors.New("cbl: lock already held or requested by this node")

// ErrNotHeld is returned when a node unlocks a lock it does not hold.
var ErrNotHeld = errors.New("cbl: unlock of a lock not held")

// nextInfo identifies a node's queue successor and its requested mode.
type nextInfo struct {
	node int
	mode msg.LockMode
}

// Unit is the node-side lock controller: the fully-associative lock cache
// plus the request/grant state machine.
type Unit struct {
	f       *fabric.Fabric
	id      int
	geom    mem.Geometry
	lc      *cache.LockCache
	station fabric.Station

	// DirectHandoff enables the paper's structural fast path: a write
	// holder that knows its queue successor passes the grant (with the
	// line's data) straight down the list — one network transit per
	// handoff instead of a release-to-home plus grant. The home still
	// serializes queue membership; it learns of the handoff from the
	// release notification.
	DirectHandoff bool

	// waiting maps a block with an outstanding request to its completion
	// callback (invoked when the grant arrives).
	waiting map[mem.Block]func()
	// next records this node's queue successor and its requested mode,
	// learned from the LockFwd that linked it. Unlike the structural
	// l.Next pointer (which late splice messages from an earlier queue
	// epoch may overwrite), this map is maintained only by the
	// LockFwd/Unlock pair and is therefore safe to key handoffs on.
	next map[mem.Block]nextInfo
	// epoch counts this node's lock acquisitions per block; LockReq
	// carries it and the home echoes it in LockFwd, so a forward that was
	// aimed at an earlier tenure of this node on the queue is ignored
	// rather than poisoning the current line's successor info.
	epoch map[mem.Block]uint64

	// Grants and Waits count grant receipts and enqueued waits;
	// DirectHandoffs counts grants passed holder-to-holder.
	Grants         uint64
	Waits          uint64
	DirectHandoffs uint64
}

// NewUnit builds the node-side lock controller with the given lock-cache
// capacity.
func NewUnit(f *fabric.Fabric, id int, geom mem.Geometry, lockEntries int) *Unit {
	u := &Unit{
		f: f, id: id, geom: geom,
		lc:      cache.NewLockCache(geom, lockEntries),
		station: fabric.NewStation(f),
	}
	u.Reset()
	return u
}

// Reset returns the unit to the state NewUnit builds: its lock cache
// empty, no request waiting, no queue successor or acquisition epoch
// known, the station idle and every counter zero. DirectHandoff is kept.
func (u *Unit) Reset() {
	u.lc.Reset()
	u.station.Reset()
	clear(u.waiting)
	clear(u.next)
	clear(u.epoch)
	u.Grants, u.Waits, u.DirectHandoffs = 0, 0, 0
}

// LockCache exposes the underlying lock cache for inspection.
func (u *Unit) LockCache() *cache.LockCache { return u.lc }

// Line returns the lock line for the block containing a, or nil. The
// machine layer uses this to route ordinary reads and writes of a locked
// block to the lock cache (the grant brought the data here).
func (u *Unit) Line(a mem.Addr) *cache.Line {
	return u.lc.Lookup(u.geom.BlockOf(a))
}

// Holds reports whether this node currently holds a lock (in any mode) on
// the block containing a.
func (u *Unit) Holds(a mem.Addr) bool {
	l := u.lc.Lookup(u.geom.BlockOf(a))
	return l != nil && l.Held
}

// ReadLocked reads a word of a block this node holds a lock on; the grant
// brought the data into the lock cache, so the access is a local hit.
func (u *Unit) ReadLocked(a mem.Addr) (mem.Word, error) {
	l := u.lc.Lookup(u.geom.BlockOf(a))
	if l == nil || !l.Held {
		return 0, ErrNotHeld
	}
	u.f.RMR.LocalHit(u.id)
	return l.Data[u.geom.WordIndex(a)], nil
}

// WriteLocked writes a word of a block this node holds a write lock on. The
// dirty word travels back to the home with the release.
func (u *Unit) WriteLocked(a mem.Addr, w mem.Word) error {
	l := u.lc.Lookup(u.geom.BlockOf(a))
	if l == nil || !l.Held {
		return ErrNotHeld
	}
	if l.Mode != msg.LockWrite {
		return fmt.Errorf("cbl: write under %v", l.Mode)
	}
	wi := u.geom.WordIndex(a)
	u.f.RMR.LocalHit(u.id)
	l.Data[wi] = w
	l.Dirty.Set(wi)
	return nil
}

// Lock issues READ-LOCK or WRITE-LOCK for the block containing a. done runs
// when the grant (carrying the block's data) arrives. Lock returns an error
// synchronously if the lock cache is full or the lock is already held or
// requested by this node.
func (u *Unit) Lock(a mem.Addr, mode msg.LockMode, done func()) error {
	if mode != msg.LockRead && mode != msg.LockWrite {
		panic(fmt.Sprintf("cbl: invalid lock mode %v", mode))
	}
	b := u.geom.BlockOf(a)
	if u.lc.Lookup(b) != nil {
		return ErrAlreadyHeld
	}
	l, err := u.lc.Allocate(b)
	if err != nil {
		return ErrLockCacheFull
	}
	l.Mode = mode
	l.Held = false
	if u.waiting == nil { // the first Lock makes both maps
		u.waiting, u.epoch = make(map[mem.Block]func()), make(map[mem.Block]uint64)
	}
	u.waiting[b] = done
	u.epoch[b]++
	u.f.RMR.RemoteRef(u.id)
	u.f.Send(msg.Msg{Kind: msg.LockReq, Src: u.id, Dst: u.geom.Home(b), Block: b, Mode: mode, Seq: u.epoch[b]})
	return nil
}

// Unlock releases the lock on the block containing a. The processor
// continues immediately (§4.3: the unlocking processor does not wait for
// the unlock to be globally performed); done fires after the local
// cache-directory access. A write holder's dirty words travel back to the
// home with the release.
func (u *Unit) Unlock(a mem.Addr, done func()) error {
	b := u.geom.BlockOf(a)
	l := u.lc.Lookup(b)
	if l == nil || !l.Held {
		return ErrNotHeld
	}
	home := u.geom.Home(b)
	u.f.RMR.RemoteRef(u.id)
	if ni, ok := u.next[b]; u.DirectHandoff && ok && l.Mode == msg.LockWrite &&
		ni.mode == msg.LockWrite {
		// Fast path (§4.3's structural description): the grant — and
		// the current data — pass straight to the waiting writer; the
		// home only updates its queue bookkeeping. Memory stays stale
		// until a release finds no waiting writer, which is safe: a
		// write holder's copy is authoritative while it exists.
		u.DirectHandoffs++
		u.f.Send(msg.Msg{
			Kind: msg.LockGrant, Src: u.id, Dst: u.next[b].node, Block: b,
			Data: l.Data, Mode: msg.LockWrite, Mask: l.Dirty,
		})
		u.f.Send(msg.Msg{Kind: msg.LockDequeue, Src: u.id, Dst: home, Block: b, Mode: l.Mode, Aux: 1})
		delete(u.next, b)
		u.lc.Release(b)
		u.f.Eng.After(u.f.Time.CacheHit, done)
		return nil
	}
	if l.Dirty.Any() {
		u.f.Send(msg.Msg{
			Kind: msg.UnlockToHome, Src: u.id, Dst: home, Block: b,
			Data: l.Data, Mask: l.Dirty, Mode: l.Mode,
		})
	} else {
		u.f.Send(msg.Msg{Kind: msg.LockDequeue, Src: u.id, Dst: home, Block: b, Mode: l.Mode})
	}
	delete(u.next, b)
	u.lc.Release(b)
	u.f.Eng.After(u.f.Time.CacheHit, done)
	return nil
}

// Handles reports whether the unit consumes this message kind.
func (u *Unit) Handles(k msg.Kind) bool {
	switch k {
	case msg.LockGrant, msg.LockFwd, msg.LockLinked:
		return true
	}
	return false
}

// Handle processes an inbound lock message after the cache-directory check.
func (u *Unit) Handle(m *msg.Msg) { u.station.Process(u, m) }

// OnDeliver implements sim.Receiver: the station's check is done.
func (u *Unit) OnDeliver(m any) { u.process(m.(*msg.Msg)) }

func (u *Unit) process(m *msg.Msg) {
	switch m.Kind {
	case msg.LockGrant:
		l := u.lc.Lookup(m.Block)
		if l == nil {
			panic(fmt.Sprintf("cbl: node %d granted lock on %d without a line", u.id, m.Block))
		}
		copy(l.Data, m.Data)
		// A grant from the home carries memory-fresh data (Mask 0); a
		// direct handoff carries the predecessor's dirty words, whose
		// responsibility transfers to us — they reach memory with our
		// eventual release.
		l.Dirty = m.Mask
		l.Held = true
		u.Grants++
		done := u.waiting[m.Block]
		delete(u.waiting, m.Block)
		if done == nil {
			panic(fmt.Sprintf("cbl: node %d grant on %d with no waiter", u.id, m.Block))
		}
		done()

	case msg.LockFwd:
		// The home forwarded a new requester to us as the previous
		// queue tail: record our next pointer and tell the requester
		// it is linked. If our line is already gone (we released
		// concurrently), still notify the requester; arbitration at
		// the home is unaffected.
		if l := u.lc.Lookup(m.Block); l != nil && u.epoch[m.Block] == m.Seq {
			l.Next = m.Requester
			if u.next == nil {
				u.next = make(map[mem.Block]nextInfo)
			}
			u.next[m.Block] = nextInfo{node: m.Requester, mode: m.Mode}
		}
		u.f.Send(msg.Msg{Kind: msg.LockLinked, Src: u.id, Dst: m.Requester, Block: m.Block})

	case msg.LockLinked:
		if l := u.lc.Lookup(m.Block); l != nil && !l.Held {
			l.Prev = m.Src
			u.Waits++
		}

	case msg.SetPrevPtr:
		if l := u.lc.Lookup(m.Block); l != nil {
			l.Prev = m.Requester
		}

	case msg.SetNextPtr:
		if l := u.lc.Lookup(m.Block); l != nil {
			l.Next = m.Requester
		}

	default:
		panic(fmt.Sprintf("cbl: node %d cannot handle %v", u.id, m.Kind))
	}
}
