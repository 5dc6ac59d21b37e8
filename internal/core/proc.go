package core

import (
	"fmt"

	"ssmp/internal/history"
	"ssmp/internal/mem"
	"ssmp/internal/msg"
	"ssmp/internal/sim"
)

// Proc is a simulated processor's program-facing handle. Its methods block
// the program until the modeled operation completes, advancing the
// simulation clock underneath.
//
// A Program runs as a coroutine (iter.Pull) that the event loop switches
// into and out of: the program runs only between a step and its next park,
// while the loop that resumed it waits, so programs need no synchronization
// of their own. Proc methods must only be called from within the
// processor's own Program. An op list (Machine.RunOps) needs no coroutine:
// the event loop performs its calls itself.
type Proc struct {
	id int
	m  *Machine
	n  *node
	// eng is the engine this processor schedules on: its node's lane, the
	// machine's only lane on a serial run.
	eng *sim.Engine
	// runs marks a processor given a program or an op list; one given
	// neither idles.
	runs bool
	// next resumes a program's coroutine and yield parks it; w is the word
	// the resuming step hands to the parked program.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	w     mem.Word
	// list is the op list the processor runs on the event loop instead of a
	// program: pc indexes the next call to begin, begun marks a call begun
	// and not yet ended, and words holds the word each ended call returned.
	list  []Op
	pc    int
	begun bool
	words []mem.Word
	done  bool
	err   any

	// Batched stepping: purely local operations (Think, private
	// references, lock-cache hits) do not yield to the event loop; their
	// delays accumulate in hops (lag is the running sum) and are replayed
	// as a chain of typed events when the program reaches an operation
	// that touches shared state. The replay schedules exactly the events
	// the unbatched kernel would have — same times, same insertion
	// sequence — so results are bit-identical, but the park and resume
	// per local operation collapse into one per batch.
	hops   []sim.Time
	hopIdx int
	lag    sim.Time

	// op is the blocking primitive the current call issues: the last hop
	// of the replay issues it from the event loop (see block). begunAt is
	// the processor's logical time when the call began, and issuedAt the
	// cycle the call was issued, from which end charges its wait; opPanic
	// carries a panic raised at issue on the event loop back to the call,
	// which re-raises it. bufWait marks an operation waiting on its write
	// buffer, for a slot or for the buffer to drain: cb0 then re-enters
	// issue instead of ending the call.
	op       pendingOp
	begunAt  sim.Time
	issuedAt sim.Time
	opPanic  any
	bufWait  bool
	// parks counts the times the program waited on the event loop.
	parks uint64

	// cb0 and cbW are the controller completion callbacks, allocated once
	// instead of once per operation.
	cb0 func()
	cbW func(mem.Word)

	// Ops counts primitive operations issued.
	Ops uint64
	// PrivHits and PrivMisses count modeled private references.
	PrivHits   uint64
	PrivMisses uint64

	stats ProcStats
}

// ProcStats breaks a processor's elapsed cycles into the categories the
// paper's discussion of utilization distinguishes (§5.2: "synchronization
// activities may keep the processor busy without performing any useful
// computation").
type ProcStats struct {
	// Busy is local computation: Think, private references, cache and
	// lock-cache hits.
	Busy sim.Time
	// MemStall is time stalled on memory and coherence operations
	// (misses, global reads/writes under SC, update subscriptions).
	MemStall sim.Time
	// SyncStall is time stalled on synchronization: lock waits, barrier
	// waits, buffer flushes, and release latencies.
	SyncStall sim.Time
	// Finished is the cycle the processor's program completed.
	Finished sim.Time
}

// Utilization returns Busy / (Busy + MemStall + SyncStall), the paper's
// useful-computation fraction. It returns 0 for an idle processor.
func (s ProcStats) Utilization() float64 {
	total := s.Busy + s.MemStall + s.SyncStall
	if total == 0 {
		return 0
	}
	return float64(s.Busy) / float64(total)
}

// stallCat tags what a blocked processor is waiting for.
type stallCat uint8

const (
	catBusy stallCat = iota
	catMem
	catSync
)

// Stats returns the processor's cycle breakdown.
func (p *Proc) Stats() ProcStats { return p.stats }

// init readies the processor of node n, which schedules on eng.
func (p *Proc) init(m *Machine, n *node, eng *sim.Engine) {
	p.id, p.m, p.n, p.eng = n.id, m, n, eng
	p.cb0 = func() {
		if p.bufWait {
			// The write buffer has freed a slot or drained: go on with
			// the operation from here, as the resumed program would
			// have.
			p.bufWait = false
			p.issueOnLoop()
			return
		}
		p.step(0)
	}
	p.cbW = func(w mem.Word) { p.step(w) }
	p.reset()
}

// reset returns the processor to the state init leaves it in: no program,
// nothing batched or pending, every count zero. Its wiring, completion
// callbacks and the memory of its hop and word lists are kept.
func (p *Proc) reset() {
	p.runs, p.next, p.yield, p.w = false, nil, nil, 0
	p.list, p.pc, p.begun, p.words, p.done, p.err = nil, 0, false, p.words[:0], false, nil
	p.hops, p.hopIdx, p.lag = p.hops[:0], 0, 0
	p.op, p.begunAt, p.issuedAt, p.opPanic, p.bufWait, p.parks = pendingOp{}, 0, 0, nil, false, 0
	p.Ops, p.PrivHits, p.PrivMisses, p.stats = 0, 0, 0, ProcStats{}
}

// now returns the processor's logical time: the engine clock plus any local
// cycles not yet replayed into it.
func (p *Proc) now() sim.Time { return p.eng.Now() + p.lag }

// maxBatch bounds how many local delays accumulate before a forced replay,
// which follows the call that filled the batch. Without the bound a
// program that never touches shared state (for example one spinning in
// Think) would starve the event loop, making the horizon and run-context
// interrupts unreachable. The forced replay schedules the same events at
// the same instants a single larger batch would, so the bound has no
// observable effect on results.
const maxBatch = 1024

// local charges c cycles of purely local time: no yield, no event — the
// delay is replayed on the next sync. No time charges nothing.
func (p *Proc) local(c sim.Time) {
	if c == 0 {
		return
	}
	p.hops = append(p.hops, c)
	p.lag += c
	p.stats.Busy += c
}

// sync replays the accumulated local delays into the engine clock and
// returns with the clock at the processor's logical time: a program calls
// it when it ends and after a call that fills the batch. The replay is a
// chain of typed events — hop i schedules hop i+1 when it fires —
// reproducing the exact (time, sequence) event structure the unbatched
// kernel produced, which keeps runs bit-identical.
func (p *Proc) sync() {
	if len(p.hops) == 0 {
		return
	}
	p.replay(stepResume)
	p.wait()
}

// What the last hop of a replay does: resume the program, or issue the
// blocking primitive it is parked on. The choice rides in the hop events'
// arg.
const (
	stepResume uint64 = iota
	stepIssue
)

// replay schedules the first hop of the batched local time; each hop
// schedules the next, and the last one does what last says.
func (p *Proc) replay(last uint64) {
	p.hopIdx = 1
	p.lag = 0
	p.eng.AfterStep(p.hops[0], p, last)
}

// OnStep implements sim.Stepper: it advances the hop-replay chain and, once
// the last hop has fired, resumes the program or issues its pending
// operation. Called from the event loop only.
func (p *Proc) OnStep(last uint64) {
	if p.hopIdx < len(p.hops) {
		d := p.hops[p.hopIdx]
		p.hopIdx++
		p.eng.AfterStep(d, p, last)
		return
	}
	p.hops = p.hops[:0]
	p.hopIdx = 0
	if last == stepIssue {
		p.issuedAt = p.eng.Now()
		p.issueOnLoop()
		return
	}
	p.step(0)
}

// step hands w to the processor's program and returns when the program
// waits on its next call or finishes: a coroutine is switched to, and an
// op list continues on the event loop. Called from the event loop only.
func (p *Proc) step(w mem.Word) {
	if p.done {
		panic(fmt.Sprintf("core: step on finished processor %d", p.id))
	}
	if p.list != nil {
		p.advance(w)
		return
	}
	p.resume(w)
}

// finish marks the processor's program done at the current cycle.
func (p *Proc) finish() {
	p.done = true
	p.stats.Finished = p.eng.Now()
	p.m.finished++
}

// startOps readies the processor to run list on the event loop and
// schedules its first step, at the instant a program's coroutine would
// take its first.
func (p *Proc) startOps(list []Op) {
	p.runs, p.list = true, list
	if cap(p.words) < len(list) {
		p.words = make([]mem.Word, 0, len(list))
	}
	p.eng.AtStep(0, p, stepResume)
}

// advance runs the op list on the event loop, as a program calling Do on
// each record would: it ends the call begun before, handing it w, and
// begins the next, until a call waits or the list ends. A full batch of
// local time is replayed after the call that filled it, and the list's
// trailing local time before it finishes. A panic a call raises is the
// processor's error, as a program's is, and an abort drain finishes the
// list where it stands.
func (p *Proc) advance(w mem.Word) {
	defer func() {
		if r := recover(); r != nil {
			p.err = r
			p.finish()
		}
	}()
	if p.m.aborting {
		p.finish()
		return
	}
	for {
		if p.begun {
			p.begun = false
			p.words = append(p.words, p.end(p.list[p.pc-1], w))
			if len(p.hops) >= maxBatch {
				break
			}
		}
		if p.pc == len(p.list) {
			if len(p.hops) == 0 {
				p.finish()
				return
			}
			break
		}
		var waits bool
		w, waits = p.begin(p.list[p.pc], nil)
		p.pc++
		p.begun = true
		if waits {
			p.parks++
			return
		}
	}
	// Wait for the replay of the batched local time, as a program's sync
	// does.
	p.replay(stepResume)
	p.parks++
}

// pendingOp is a blocking primitive as the call records it for issue,
// with an RMW's function: nil for a fetch-and-add of Val.
type pendingOp struct {
	Op
	rmw func(mem.Word) mem.Word
}

// apply returns the word the RMW writes over w.
func (o *pendingOp) apply(w mem.Word) mem.Word {
	if o.rmw == nil {
		return w + o.Val
	}
	return o.rmw(w)
}

// do is the one path every primitive a program calls takes, with rmw an
// RMW's function (nil: fetch-and-add of o.Val): begin, then, if the call
// waits, a park until the event loop hands its word over, then end; a
// call that fills the batch of local time then replays it. An op list
// takes the same begin and end on the event loop (advance).
func (p *Proc) do(o Op, rmw func(mem.Word) mem.Word) mem.Word {
	w, waits := p.begin(o, rmw)
	if waits {
		w = p.wait()
	}
	w = p.end(o, w)
	if len(p.hops) >= maxBatch {
		p.sync()
	}
	return w
}

// begin starts the call o: it checks the machine, counts the call, shows
// it to the OnOp observer and runs the kind's own arm, or issues it,
// reading the kind's facts from opKinds. It returns the word of a call
// that completes at once, or reports that the call waits: the event loop
// then hands the call's word to the step that ends it. No arm calls
// another primitive: local time inside one is charged with local, so each
// call is counted and shown exactly once.
func (p *Proc) begin(o Op, rmw func(mem.Word) mem.Word) (w mem.Word, waits bool) {
	if int(o.Kind) >= len(opKinds) {
		panic(fmt.Sprintf("core: unknown op kind %d", o.Kind))
	}
	k := &opKinds[o.Kind]
	if k.only != everyMachine && k.only != p.m.cfg.Protocol {
		panic(fmt.Sprintf("core: %s is not a primitive of the %v machine", k.name, p.m.cfg.Protocol))
	}
	p.issuedAt = p.eng.Now()
	if o.Kind == OpThink && o.Val == 0 {
		return 0, false // no time passes: nothing to count, show or record
	}
	wbi := p.m.cfg.Protocol == ProtoWBI
	p.Ops += k.ops
	if p.m.onOp != nil {
		if rmw != nil {
			// Normalize the RMW to fetch-and-add by probing its function
			// at zero: exact for fetch-and-add and test-and-set from a
			// free lock, an approximation for other functions, which a
			// record cannot carry. The probe, and the history record's
			// new value in end, run only for a consumer that is
			// installed, so an unobserved RMW calls its function once,
			// at the cache.
			o.Val = rmw(0)
		}
		p.m.onOp(p.id, o)
	}
	p.begunAt = p.now()
	switch {
	case o.Kind == OpThink:
		p.local(sim.Time(o.Val))
	case o.Kind == OpPrivate:
		p.privateRef(o.Hit)
	case o.Kind == OpFlush && wbi:
		// WBI writes are already strongly consistent: nothing to flush.
	case (o.Kind == OpRead || o.Kind == OpWrite || o.Kind == OpWriteGlobal) && p.HoldsLock(o.Addr):
		w = p.lockCached(o)
	default:
		if wbi {
			// A coherent read is already globally fresh, and a coherent
			// write already strongly consistent.
			switch o.Kind {
			case OpReadGlobal:
				o.Kind = OpRead
			case OpWriteGlobal:
				o.Kind = OpWrite
			}
		}
		p.op = pendingOp{Op: o, rmw: rmw}
		waits = p.block()
	}
	return w, waits
}

// block issues the pending operation and reports whether the call waits
// for it to complete. Every wait a primitive makes is this one: FLUSH-
// BUFFER and WRITE-GLOBAL included, since the write buffer drains on its
// own schedule, and batched local time must be replayed before observing
// it or a pump completion due before the processor's logical now would be
// missed. With no local time batched the call issues inline. Otherwise
// block schedules the replay, and the last hop issues the operation from
// the event loop. That is the event in which a program woken by the hop
// would have issued it, with the same controller calls in the same order,
// so runs stay bit-identical; only the wake-up in between is gone.
func (p *Proc) block() bool {
	if len(p.hops) > 0 {
		p.replay(stepIssue)
		return true
	}
	return p.issue()
}

// end completes the call o, whose word is w, once it no longer waits: it
// re-raises a panic its issue raised on the event loop, charges the
// cycles from issue to completion to the kind's stall category, and
// writes the call's history record.
func (p *Proc) end(o Op, w mem.Word) mem.Word {
	if r := p.opPanic; r != nil {
		p.opPanic = nil
		panic(r)
	}
	k := &opKinds[o.Kind]
	p.charge(k.stall, p.eng.Now()-p.issuedAt)
	if h := p.m.hist; h != nil && k.hist != histNone {
		r := history.Op{Proc: p.id, Addr: o.Addr, Value: w, Start: p.begunAt, End: p.now()}
		switch k.hist {
		case histWrite:
			r.Write, r.Value = true, o.Val
		case histRMW:
			r.Write, r.RMW, r.Value, r.Prev = true, true, p.op.apply(w), w
		}
		h.Record(r)
	}
	return w
}

// issue hands the pending operation to its controller and reports whether
// the call must wait for a completion callback; a flush that finds the
// write buffer empty, and a WRITE-GLOBAL the buffer admits under BC,
// complete at once. The CBL machine's WRITE-GLOBAL, UNLOCK and BARRIER may
// wait on the write buffer first: issue then registers cb0 with it, and
// cb0 re-enters issue once the buffer has a slot or has drained.
func (p *Proc) issue() bool {
	o, n := &p.op, p.n
	switch o.Kind {
	case OpRead:
		if p.m.cfg.Protocol == ProtoWBI {
			n.wbiN.Read(o.Addr, p.cbW)
		} else {
			n.rucN.Read(o.Addr, p.cbW)
		}
	case OpWrite:
		if p.m.cfg.Protocol == ProtoWBI {
			n.wbiN.Write(o.Addr, o.Val, p.cb0)
		} else {
			n.rucN.Write(o.Addr, o.Val, p.cb0)
		}
	case OpReadGlobal:
		n.rucN.ReadGlobal(o.Addr, p.cbW)
	case OpReadUpdate:
		n.rucN.ReadUpdate(o.Addr, p.cbW)
	case OpResetUpdate:
		n.rucN.ResetUpdate(o.Addr, p.cb0)
	case OpReadLock, OpWriteLock:
		mode := msg.LockRead
		if o.Kind == OpWriteLock {
			mode = msg.LockWrite
		}
		if err := n.cblU.Lock(o.Addr, mode, p.cb0); err != nil {
			panic(fmt.Sprintf("core: processor %d %v on %d: %v", p.id, mode, o.Addr, err))
		}
	case OpRMW:
		if o.rmw == nil {
			n.wbiN.FetchAdd(o.Addr, o.Val, p.cbW)
		} else {
			n.wbiN.RMW(o.Addr, o.rmw, p.cbW)
		}
	case OpWriteGlobal:
		// The CBL machine's: the write enters the write buffer.
		if !n.buf.Add(p.m.geom.BlockOf(o.Addr), p.m.geom.WordIndex(o.Addr), o.Val) {
			// Bounded buffer full: try again once an ack frees a slot.
			p.bufWait = true
			n.buf.OnSpace(p.cb0)
			return true
		}
		if p.m.cfg.Consistency != SC {
			// Under BC the processor continues after a cache cycle, so
			// the write's interval ends locally though it is performed
			// later (exactly why BC histories fail a linearizability
			// check).
			p.local(p.m.cfg.Timing.CacheHit)
			return false
		}
		// Under SC the processor stalls until the memory acknowledgment:
		// the admitted write waits for the buffer to drain, as
		// FLUSH-BUFFER does.
		o.Kind = OpFlush
		fallthrough
	default: // OpFlush, OpUnlock, OpBarrier
		if !n.buf.Empty() {
			p.bufWait = true
			n.buf.OnEmpty(p.cb0)
			return true
		}
		switch o.Kind {
		case OpUnlock:
			if err := n.cblU.Unlock(o.Addr, p.cb0); err != nil {
				panic(fmt.Sprintf("core: processor %d unlock on %d: %v", p.id, o.Addr, err))
			}
		case OpBarrier:
			n.barU.Arrive(o.Addr, int(o.Val), p.cb0)
		default:
			return false
		}
	}
	return true
}

// issueOnLoop issues the pending operation from the event loop and resumes
// the program if there is nothing to wait for.
func (p *Proc) issueOnLoop() {
	if !p.tryIssue() {
		p.step(0)
	}
}

// tryIssue is issue with any panic it raises (a full lock cache, an unlock
// of a lock not held) handed back to the call, which re-raises it in end,
// so Run reports it as that processor's error exactly as when the call
// issues inline.
func (p *Proc) tryIssue() (pending bool) {
	defer func() {
		if r := recover(); r != nil {
			p.opPanic = r
			pending = false
		}
	}()
	return p.issue()
}

// abortSignal is the panic value used to unwind a program when its
// machine's run is abandoned (cancelled, horizon, deadlock, a panicking
// event). It is absorbed by the recover in start and never reported as a
// program error.
type abortSignal struct{}

// charge adds d stalled cycles to a category.
func (p *Proc) charge(cat stallCat, d sim.Time) {
	switch cat {
	case catBusy:
		p.stats.Busy += d
	case catMem:
		p.stats.MemStall += d
	case catSync:
		p.stats.SyncStall += d
	}
}

// Id returns the processor's node id.
func (p *Proc) Id() int { return p.id }

// Now returns the current simulation time as seen by this processor: the
// engine clock plus any batched local cycles not yet replayed into it.
func (p *Proc) Now() sim.Time { return p.now() }

// Machine returns the owning machine.
func (p *Proc) Machine() *Machine { return p.m }

// Do performs the primitive o describes and returns the word it reads: a
// READ's, READ-GLOBAL's or READ-UPDATE's value, or an RMW's old value; 0
// for every other kind. An RMW record performs fetch-and-add of Val. Each
// named primitive method is Do of its record, so Do of a captured or
// parsed trace replays the calls that made it.
func (p *Proc) Do(o Op) mem.Word { return p.do(o, nil) }

// privateRef is the arm of a private reference, costed as PrivateRef
// describes.
func (p *Proc) privateRef(hit bool) {
	t := p.m.cfg.Timing
	if hit {
		p.PrivHits++
		p.local(t.CacheHit)
		return
	}
	p.PrivMisses++
	hop := p.m.cfg.LocalDelay
	if p.m.cfg.DanceHall {
		// All memory is across the network: a miss pays the full
		// round-trip transit.
		hop = p.m.net.UncontendedLatency(0)
	}
	p.local(t.CacheHit + 2*hop + t.TMem)
}

// lockCached is the arm of a READ, WRITE or WRITE-GLOBAL of a block this
// node holds locked: the lock cache serves it. The block's contents are
// unobservable remotely while the lock is held, so this is a purely local
// operation and stays in the batch; a written word travels home on
// unlock.
func (p *Proc) lockCached(o Op) mem.Word {
	var w mem.Word
	var err error
	if o.Kind == OpRead {
		w, err = p.n.cblU.ReadLocked(o.Addr)
	} else {
		err = p.n.cblU.WriteLocked(o.Addr, o.Val)
	}
	if err != nil {
		panic(err)
	}
	p.local(p.m.cfg.Timing.CacheHit)
	return w
}

// Think models c cycles of local computation. The delay is batched: it
// accumulates locally and is replayed into the event loop at the next
// shared-state operation, costing no coroutine switch of its own.
func (p *Proc) Think(c sim.Time) { p.do(Op{Kind: OpThink, Val: mem.Word(c)}, nil) }

// PrivateRef models one reference to private data (the probabilistic
// workload models decide hit/miss per Table 4's hit ratio). A hit costs one
// cache cycle; a miss fetches the block from the node's local memory module
// (distributed memory: private data is homed locally, so no network
// traversal).
func (p *Proc) PrivateRef(write, hit bool) {
	p.do(Op{Kind: OpPrivate, Write: write, Hit: hit}, nil)
}

// Read performs the READ primitive. On the CBL machine it is a private read
// (no coherence action), served from the lock cache when this node holds a
// lock on the block; on the WBI machine it is a coherent read.
func (p *Proc) Read(a mem.Addr) mem.Word { return p.do(Op{Kind: OpRead, Addr: a}, nil) }

// Write performs the WRITE primitive. On the CBL machine it is a private
// write (propagated only on replacement or an explicit global write),
// routed to the lock cache when this node holds a write lock on the block;
// on the WBI machine it is a strongly consistent coherent write.
func (p *Proc) Write(a mem.Addr, w mem.Word) { p.do(Op{Kind: OpWrite, Addr: a, Val: w}, nil) }

// ReadGlobal performs READ-GLOBAL: reads the word from main memory,
// bypassing the local cache. On the WBI machine a coherent read is already
// globally fresh and is used instead.
func (p *Proc) ReadGlobal(a mem.Addr) mem.Word {
	return p.do(Op{Kind: OpReadGlobal, Addr: a}, nil)
}

// WriteGlobal performs WRITE-GLOBAL. Under buffered consistency the write
// enters the write buffer and the processor continues immediately; under
// sequential consistency the processor stalls until the memory
// acknowledgment. On the WBI machine it is an ordinary strongly consistent
// write. A write to a block this node holds a write lock on goes to the
// lock line: the data is secured by the lock and travels home on unlock.
func (p *Proc) WriteGlobal(a mem.Addr, w mem.Word) {
	p.do(Op{Kind: OpWriteGlobal, Addr: a, Val: w}, nil)
}

// FlushBuffer performs FLUSH-BUFFER: stalls until every buffered global
// write has been performed at memory. A no-op on the WBI machine, whose
// writes are already strongly consistent.
func (p *Proc) FlushBuffer() { p.do(Op{Kind: OpFlush}, nil) }

// ReadUpdate performs READ-UPDATE: reads the word and subscribes this node
// to future updates of its block (CBL machine only).
func (p *Proc) ReadUpdate(a mem.Addr) mem.Word {
	return p.do(Op{Kind: OpReadUpdate, Addr: a}, nil)
}

// ResetUpdate performs RESET-UPDATE: cancels the subscription (CBL machine
// only).
func (p *Proc) ResetUpdate(a mem.Addr) { p.do(Op{Kind: OpResetUpdate, Addr: a}, nil) }

// ReadLock performs READ-LOCK: acquires a shared lock on the block
// containing a, blocking until granted. The grant carries the block's data
// into the lock cache. An NP-Synch operation: no write-buffer flush.
func (p *Proc) ReadLock(a mem.Addr) { p.do(Op{Kind: OpReadLock, Addr: a}, nil) }

// WriteLock performs WRITE-LOCK: acquires an exclusive lock on the block
// containing a, blocking until granted. An NP-Synch operation.
func (p *Proc) WriteLock(a mem.Addr) { p.do(Op{Kind: OpWriteLock, Addr: a}, nil) }

// Unlock performs UNLOCK, a CP-Synch operation: under buffered consistency
// the write buffer is flushed first (all global writes preceding the
// release must be globally performed, §2); the release itself does not
// stall the processor beyond the local cache access.
func (p *Proc) Unlock(a mem.Addr) { p.do(Op{Kind: OpUnlock, Addr: a}, nil) }

// Barrier joins the hardware barrier named by address a with the given
// participant count, blocking until every participant arrives. A CP-Synch
// operation: the write buffer is flushed before arrival.
func (p *Proc) Barrier(a mem.Addr, participants int) {
	p.do(Op{Kind: OpBarrier, Addr: a, Val: mem.Word(participants)}, nil)
}

// RMW performs an atomic read-modify-write on the WBI machine, returning
// the old value. This is the primitive software locks are built from.
func (p *Proc) RMW(a mem.Addr, op func(mem.Word) mem.Word) mem.Word {
	return p.do(Op{Kind: OpRMW, Addr: a}, op)
}

// HoldsLock reports whether this node currently holds a CBL lock on the
// block containing a.
func (p *Proc) HoldsLock(a mem.Addr) bool {
	return p.m.cfg.Protocol == ProtoCBL && p.n.cblU.Holds(a)
}
