package core

import (
	"ssmp/internal/mem"
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

// Op describes one primitive call: what Proc.Do performs, what an OnOp
// observer is shown, and what one line of a trace file records.
type Op struct {
	Kind OpKind
	// Addr is the word the primitive names (for a lock, a word of the
	// locked block; for BARRIER, the barrier).
	Addr mem.Addr
	// Val is the written value, the RMW addend, the barrier's participant
	// count, or THINK's cycles. An RMW is shown to observers normalized to
	// fetch-and-add, the only RMW shape a record carries.
	Val mem.Word
	// Write and Hit qualify private references.
	Write, Hit bool
}

// histShape is the history record a primitive leaves.
type histShape uint8

const (
	histNone  histShape = iota
	histRead            // a read of the word the call returns
	histWrite           // a write of Val
	histRMW             // an atomic update from the returned word to its function's value
)

// everyMachine marks a kind that both machines offer.
const everyMachine Protocol = 0xff

// kindInfo is what the machine knows of one primitive kind.
type kindInfo struct {
	name string // the paper's name
	only Protocol
	// ops is what a call adds to Proc.Ops: UNLOCK and BARRIER count the
	// FLUSH-BUFFER they perform first, and THINK is no operation.
	ops   uint64
	stall stallCat // what a blocking call's wait is charged to
	hist  histShape
}

// opKinds holds every kind's facts, indexed by OpKind.
var opKinds = [...]kindInfo{
	OpRead:        {"READ", everyMachine, 1, catMem, histRead},
	OpWrite:       {"WRITE", everyMachine, 1, catMem, histWrite},
	OpReadGlobal:  {"READ-GLOBAL", everyMachine, 1, catMem, histRead},
	OpWriteGlobal: {"WRITE-GLOBAL", everyMachine, 1, catMem, histWrite},
	OpReadUpdate:  {"READ-UPDATE", ProtoCBL, 1, catMem, histRead},
	OpResetUpdate: {"RESET-UPDATE", ProtoCBL, 1, catMem, histNone},
	OpFlush:       {"FLUSH-BUFFER", everyMachine, 1, catSync, histNone},
	OpReadLock:    {"READ-LOCK", ProtoCBL, 1, catSync, histNone},
	OpWriteLock:   {"WRITE-LOCK", ProtoCBL, 1, catSync, histNone},
	OpUnlock:      {"UNLOCK", ProtoCBL, 2, catSync, histNone},
	OpBarrier:     {"BARRIER", ProtoCBL, 2, catSync, histNone},
	OpThink:       {"THINK", everyMachine, 0, catBusy, histNone},
	OpPrivate:     {"PRIVATE", everyMachine, 1, catBusy, histNone},
	OpRMW:         {"RMW", ProtoWBI, 1, catSync, histRMW},
}

// OnOp registers an observer invoked at the *issue* of every primitive,
// with the issuing processor's id. Call before Run. The observer must not
// call Proc methods. On many lanes it sees the calls window by window and,
// within a window, lane by lane.
func (m *Machine) OnOp(fn func(proc int, o Op)) { m.onOp = fn }
