package core

import (
	"ssmp/internal/mem"
	"ssmp/internal/sim"
)

// OpKind enumerates the primitive operations a processor can issue, for
// observers (trace capture, debugging).
type OpKind uint8

// Primitive operation kinds.
const (
	OpRead OpKind = iota
	OpWrite
	OpReadGlobal
	OpWriteGlobal
	OpReadUpdate
	OpResetUpdate
	OpFlush
	OpReadLock
	OpWriteLock
	OpUnlock
	OpBarrier
	OpThink
	OpPrivate
	OpRMW
)

// OpRecord describes one issued primitive.
type OpRecord struct {
	Proc  int
	Kind  OpKind
	Addr  mem.Addr
	Value mem.Word
	// Participants is the barrier's participant count.
	Participants int
	// Cycles is Think's duration.
	Cycles sim.Time
	// Write and Hit qualify private references.
	Write, Hit bool
	// Delta is the RMW addend when the operation is a fetch-and-add
	// (capture normalizes RMWs to fetch-and-add, the only RMW shape the
	// trace format carries).
	Delta mem.Word
}

// OnOp registers an observer invoked at the *issue* of every primitive.
// Call before Run. The observer must not call Proc methods. Serial runs
// only: a single observer cannot be invoked from concurrent lanes.
func (m *Machine) OnOp(fn func(OpRecord)) {
	if m.Lanes() > 1 {
		panic("core: OnOp requires a serial run (SimWorkers=0)")
	}
	m.onOp = fn
}

// beginOp reports a primitive to the observer at issue time and suppresses
// reports from the primitives it calls internally (a cache hit's Think, an
// unlock's flush), so a captured trace replays each top-level primitive
// exactly once. Use as: p.beginOp(rec); defer p.endOp().
func (p *Proc) beginOp(r OpRecord) {
	if p.m.onOp != nil && p.opDepth == 0 {
		r.Proc = p.id
		p.m.onOp(r)
	}
	p.opDepth++
}

// endOp closes the primitive that beginOp opened.
func (p *Proc) endOp() { p.opDepth-- }
