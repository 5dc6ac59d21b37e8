// Package syncprim provides the synchronization algorithms used by the
// paper's evaluation, over the machine's hardware primitives:
//
//   - CBL locks: the hardware READ-LOCK/WRITE-LOCK/UNLOCK primitives of the
//     paper's machine (§4.3).
//   - Test-and-set spin locks on the WBI baseline, with busy-waiting on the
//     cached copy (Rudolph & Segall style), optionally with exponential
//     backoff — the paper's Q-WBI and Q-backoff configurations.
//   - A ticket lock (extension) for fairness comparisons.
//   - Barriers: the hardware barrier of the CBL machine, and a software
//     sense-reversing counter barrier for the WBI machine.
//   - A counting semaphore built on locks (the P/V operations named by the
//     buffered-consistency model).
//
// All algorithms are expressed against *core.Proc and are therefore
// simulated instruction by instruction, generating the coherence and
// synchronization traffic the paper measures.
package syncprim

import (
	"fmt"

	"ssmp/internal/core"
	"ssmp/internal/mem"
	"ssmp/internal/sim"
)

// Locker is a mutual-exclusion lock usable from a processor program.
type Locker interface {
	// Acquire blocks until the calling processor holds the lock.
	Acquire(p *core.Proc)
	// Release releases the lock.
	Release(p *core.Proc)
	// Name identifies the algorithm in reports.
	Name() string
}

// CBLLock is the hardware cache-based lock in exclusive mode.
type CBLLock struct {
	// Addr names the lock's memory block; the protected data may share
	// the block (the grant carries it).
	Addr mem.Addr
}

// Acquire issues WRITE-LOCK.
func (l CBLLock) Acquire(p *core.Proc) { p.WriteLock(l.Addr) }

// Release issues UNLOCK (a CP-Synch operation: the write buffer flushes
// first).
func (l CBLLock) Release(p *core.Proc) { p.Unlock(l.Addr) }

// Name identifies the algorithm.
func (l CBLLock) Name() string { return "CBL" }

// CBLReadLock acquires the same hardware lock in shared mode.
type CBLReadLock struct {
	Addr mem.Addr
}

// Acquire issues READ-LOCK.
func (l CBLReadLock) Acquire(p *core.Proc) { p.ReadLock(l.Addr) }

// Release issues UNLOCK.
func (l CBLReadLock) Release(p *core.Proc) { p.Unlock(l.Addr) }

// Name identifies the algorithm.
func (l CBLReadLock) Name() string { return "CBL-read" }

// TestAndSetLock is the WBI software baseline: an atomic test-and-set with
// busy-waiting on the cached copy. When the holder releases, every
// spinner's copy is invalidated, causing the re-read and re-acquire storm
// of the paper's Figures 4 and 5.
type TestAndSetLock struct {
	Addr mem.Addr
}

// Acquire spins until the test-and-set succeeds.
func (l TestAndSetLock) Acquire(p *core.Proc) {
	for {
		if old := p.RMW(l.Addr, setOne); old == 0 {
			return
		}
		// Busy-wait on the cached copy until it is invalidated by the
		// release (or another acquirer).
		p.Spin(core.OpRead, l.Addr, core.WhileUnequal, 0)
	}
}

// Release clears the lock word, invalidating every spinner.
func (l TestAndSetLock) Release(p *core.Proc) { p.Write(l.Addr, 0) }

// Name identifies the algorithm.
func (l TestAndSetLock) Name() string { return "WBI-ts" }

func setOne(mem.Word) mem.Word { return 1 }

// BackoffLock is test-and-set with bounded exponential backoff between
// attempts (the paper's Q-backoff configuration).
type BackoffLock struct {
	Addr mem.Addr
	// Base and Max bound the backoff delay in cycles; zero values default
	// to 16 and 1024.
	Base, Max sim.Time
}

// Acquire spins with exponential backoff.
func (l BackoffLock) Acquire(p *core.Proc) {
	base, max := l.Base, l.Max
	if base == 0 {
		base = 16
	}
	if max == 0 {
		max = 1024
	}
	delay := base
	for {
		if old := p.RMW(l.Addr, setOne); old == 0 {
			return
		}
		p.Think(delay)
		if delay < max {
			delay *= 2
			if delay > max {
				delay = max
			}
		}
	}
}

// Release clears the lock word.
func (l BackoffLock) Release(p *core.Proc) { p.Write(l.Addr, 0) }

// Name identifies the algorithm.
func (l BackoffLock) Name() string { return "WBI-backoff" }

// TicketLock is a fair FIFO spin lock (extension beyond the paper's
// baselines): fetch-and-increment a ticket counter, spin on the now-serving
// word.
type TicketLock struct {
	// TicketAddr and ServingAddr must be words of *different* blocks so
	// ticket fetches do not invalidate spinners.
	TicketAddr, ServingAddr mem.Addr
}

// Acquire takes a ticket and waits for service.
func (l TicketLock) Acquire(p *core.Proc) {
	ticket := p.RMW(l.TicketAddr, func(w mem.Word) mem.Word { return w + 1 })
	p.Spin(core.OpRead, l.ServingAddr, core.WhileUnequal, ticket)
}

// Release advances the serving counter.
func (l TicketLock) Release(p *core.Proc) {
	p.Write(l.ServingAddr, p.Read(l.ServingAddr)+1)
}

// Name identifies the algorithm.
func (l TicketLock) Name() string { return "WBI-ticket" }

// Barrier synchronizes a fixed set of participants.
type Barrier interface {
	// Wait blocks until every participant has arrived.
	Wait(p *core.Proc)
	// Name identifies the algorithm.
	Name() string
}

// HWBarrier is the CBL machine's hardware barrier (Table 3).
type HWBarrier struct {
	Addr         mem.Addr
	Participants int
}

// Wait arrives at the hardware barrier (a CP-Synch operation).
func (b HWBarrier) Wait(p *core.Proc) { p.Barrier(b.Addr, b.Participants) }

// Name identifies the algorithm.
func (b HWBarrier) Name() string { return "HW-barrier" }

// SWBarrier is a software sense-reversing central-counter barrier for the
// WBI machine: fetch-and-increment the count; the last arriver resets the
// count and bumps the generation word; everyone else spins on the
// generation.
type SWBarrier struct {
	// CountAddr and GenAddr must be words of different blocks.
	CountAddr, GenAddr mem.Addr
	Participants       int
}

// Wait arrives at the software barrier.
func (b SWBarrier) Wait(p *core.Proc) {
	if b.Participants < 1 {
		panic(fmt.Sprintf("syncprim: barrier participants = %d", b.Participants))
	}
	gen := p.Read(b.GenAddr)
	old := p.RMW(b.CountAddr, func(w mem.Word) mem.Word { return w + 1 })
	if int(old) == b.Participants-1 {
		p.Write(b.CountAddr, 0)
		p.Write(b.GenAddr, gen+1)
		return
	}
	p.Spin(core.OpRead, b.GenAddr, core.WhileEqual, gen)
}

// Name identifies the algorithm.
func (b SWBarrier) Name() string { return "SW-barrier" }

// Semaphore is a counting semaphore built on a Locker (the P and V
// operations of the buffered-consistency model: P is NP-Synch, V is
// CP-Synch — properties inherited from the underlying lock's acquire and
// release).
//
// On the CBL machine, CountAddr MUST lie in the lock's memory block: the
// lock grant then carries the count, and the holder's reads and writes hit
// the lock cache (the paper's §4.3 colocation rule — "when the size of the
// data structure to be governed by a lock fits within a memory block,
// acquiring the lock brings the associated data structure to the requesting
// processor"). With the count in a different block, plain READ/WRITE are
// private cache operations and each node would see its own stale copy.
// NewCBLSemaphore builds a correctly colocated instance. The WBI machine's
// coherent reads and writes have no such constraint.
type Semaphore struct {
	// CountAddr holds the semaphore's value.
	CountAddr mem.Addr
	// Lock guards the count.
	Lock Locker
	// PollDelay is the wait between availability checks (default 32).
	PollDelay sim.Time
}

// NewCBLSemaphore returns a semaphore for the CBL machine whose count is
// word 0 of the lock's own block, per the colocation rule above.
func NewCBLSemaphore(blockAddr mem.Addr) Semaphore {
	return Semaphore{CountAddr: blockAddr, Lock: CBLLock{Addr: blockAddr}}
}

// P decrements the semaphore, blocking while it is zero.
func (s Semaphore) P(p *core.Proc) {
	delay := s.PollDelay
	if delay == 0 {
		delay = 32
	}
	for {
		s.Lock.Acquire(p)
		v := p.Read(s.CountAddr)
		if v > 0 {
			p.Write(s.CountAddr, v-1)
			s.Lock.Release(p)
			return
		}
		s.Lock.Release(p)
		p.Think(delay)
	}
}

// V increments the semaphore.
func (s Semaphore) V(p *core.Proc) {
	s.Lock.Acquire(p)
	p.Write(s.CountAddr, p.Read(s.CountAddr)+1)
	s.Lock.Release(p)
}

// Region associates a lock with a shared data structure spanning several
// memory blocks — the case §4.3 assigns to the compiler: "If the data
// structure spans several memory blocks, it is the responsibility of the
// compiler to associate locks and regulate accesses to the shared data
// structure." Loads under the lock use READ-GLOBAL (the previous holder's
// release published its stores, so memory is current); stores use
// WRITE-GLOBAL and are published by the release, which on the CBL machine
// is a CP-Synch unlock that flushes the write buffer first.
type Region struct {
	// Lock guards the region.
	Lock Locker
	// Base is the region's first word; Words its length.
	Base  mem.Addr
	Words int
}

// Acquire takes the region's lock.
func (r Region) Acquire(p *core.Proc) { r.Lock.Acquire(p) }

// Release publishes the holder's stores and releases the lock.
func (r Region) Release(p *core.Proc) { r.Lock.Release(p) }

func (r Region) addr(i int) mem.Addr {
	if i < 0 || i >= r.Words {
		panic(fmt.Sprintf("syncprim: region index %d out of [0,%d)", i, r.Words))
	}
	return r.Base + mem.Addr(i)
}

// Load reads word i of the region; the caller must hold the lock.
func (r Region) Load(p *core.Proc, i int) mem.Word {
	return p.ReadGlobal(r.addr(i))
}

// Store writes word i of the region; the caller must hold the lock in
// exclusive mode. The write is globally performed no later than Release.
func (r Region) Store(p *core.Proc, i int, w mem.Word) {
	p.WriteGlobal(r.addr(i), w)
}

// MCSLock is a software queue lock (Mellor-Crummey & Scott) for the WBI
// machine — an extension beyond the paper, included because it is the
// software analogue of the paper's hardware CBL queue: waiters form a
// linked list and each spins on its *own* flag word, so a release
// invalidates exactly one cache. Comparing MCS with CBL and test-and-set
// shows how much of CBL's win is the queueing discipline (which software
// can replicate) versus the merged data transfer and hardware handoff
// (which it cannot).
//
// Layout: TailAddr holds the queue tail (a node id + 1; 0 = free).
// NodeBase is an array of per-processor queue nodes, one block per
// processor: word 0 = next (node id + 1), word 1 = locked flag.
type MCSLock struct {
	TailAddr mem.Addr
	NodeBase mem.Addr
	// BlockWords is the machine's block size (nodes are padded to block
	// boundaries so spinning stays node-local). Defaults to 4.
	BlockWords int
}

func (l MCSLock) node(id int) mem.Addr {
	bw := l.BlockWords
	if bw == 0 {
		bw = 4
	}
	return l.NodeBase + mem.Addr(id*bw)
}

// Acquire enqueues the caller and spins on its own flag.
func (l MCSLock) Acquire(p *core.Proc) {
	me := p.Id()
	my := l.node(me)
	p.Write(my+0, 0) // next = nil
	p.Write(my+1, 1) // locked = true (cleared by predecessor)
	// Swap ourselves in as the tail.
	pred := p.RMW(l.TailAddr, func(mem.Word) mem.Word { return mem.Word(me + 1) })
	if pred == 0 {
		return // lock was free
	}
	// Link behind the predecessor and spin locally.
	p.Write(l.node(int(pred-1))+0, mem.Word(me+1))
	p.Spin(core.OpRead, my+1, core.WhileUnequal, 0)
}

// Release hands the lock to the successor, or frees it if none.
func (l MCSLock) Release(p *core.Proc) {
	me := p.Id()
	my := l.node(me)
	if p.Read(my+0) == 0 {
		// No known successor: try to swing the tail back to free.
		old := p.RMW(l.TailAddr, func(w mem.Word) mem.Word {
			if w == mem.Word(me+1) {
				return 0
			}
			return w
		})
		if old == mem.Word(me+1) {
			return // freed
		}
		// A successor is mid-enqueue: wait for the link.
		p.Spin(core.OpRead, my+0, core.WhileEqual, 0)
	}
	succ := int(p.Read(my+0) - 1)
	p.Write(l.node(succ)+1, 0) // release exactly one spinner
}

// Name identifies the algorithm.
func (l MCSLock) Name() string { return "WBI-mcs" }
