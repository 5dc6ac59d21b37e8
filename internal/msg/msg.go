// Package msg defines the inter-node message vocabulary of the simulated
// machine: the coherence traffic of the reader-initiated update protocol
// (§4.1), the cache-based lock protocol (§4.3), the write-back invalidation
// baseline (§5), and the hardware barrier.
//
// Messages are classified by cost following the paper's Table 2 taxonomy:
// C_R (control transaction carrying no data), C_W (word transfer), C_I
// (invalidation), and C_B (block transfer). The class determines the
// message's occupancy on network switch ports and is the unit of the
// traffic accounting reproduced in Tables 2 and 3.
package msg

import "ssmp/internal/mem"

// Kind enumerates every message type exchanged in the machine.
type Kind uint8

const (
	// KindInvalid is the zero Kind; it is never sent.
	KindInvalid Kind = iota

	// --- Reader-initiated update coherence (RUC, §4.1) ---

	// ReadMiss fetches a block from its home on a private-read miss.
	ReadMiss
	// ReadMissReply carries the block back for a ReadMiss.
	ReadMissReply
	// WriteBack flushes a replaced line's dirty words to the home.
	WriteBack
	// ReadGlobalReq reads a word from main memory, bypassing the cache.
	ReadGlobalReq
	// ReadGlobalReply carries the word back for a ReadGlobalReq.
	ReadGlobalReply
	// WriteGlobalReq performs a word write at the home (issued from the
	// write buffer).
	WriteGlobalReq
	// WriteGlobalAck acknowledges completion of a WriteGlobalReq; its
	// receipt retires the corresponding write-buffer entry.
	WriteGlobalAck
	// ReadUpdateReq fetches a block and subscribes the requester to
	// future updates of it.
	ReadUpdateReq
	// ReadUpdateReply carries the block and links the requester into the
	// update list.
	ReadUpdateReply
	// ResetUpdateReq cancels the requester's update subscription.
	ResetUpdateReq
	// UpdateProp propagates an updated block along the subscriber list
	// (home to head, then node to node down the list).
	UpdateProp
	// SetPrevPtr rewrites the prev pointer of a linked-list cache line
	// (update chain or lock queue splice surgery). Requester carries the
	// new neighbour (NoNeighbor for nil).
	SetPrevPtr
	// SetNextPtr rewrites the next pointer of a linked-list cache line.
	SetNextPtr

	// --- Cache-based locking (CBL, §4.3) ---

	// LockReq requests a shared or exclusive lock from the home.
	LockReq
	// LockFwd is the home forwarding a LockReq to the current queue tail.
	LockFwd
	// LockGrant grants the lock; it carries the protected block.
	LockGrant
	// LockLinked tells a waiting requester it has been appended to the
	// queue (its prev pointer is set; it now busy-waits on its line).
	LockLinked
	// UnlockToHome tells the home the last holder released and the queue
	// is empty; carries dirty words of the protected block.
	UnlockToHome
	// LockDequeue removes a read-lock releaser from the middle of the
	// queue (doubly-linked-list fix-up).
	LockDequeue
	// LockDequeueAck confirms a LockDequeue pointer splice.
	LockDequeueAck

	// --- Write-back invalidation baseline (WBI, §5) ---

	// GetS requests a block in shared state.
	GetS
	// GetX requests a block in exclusive state.
	GetX
	// DataS carries a block in shared state.
	DataS
	// DataX carries a block in exclusive state (invalidation count inside).
	DataX
	// Inv invalidates a cached copy.
	Inv
	// InvAck acknowledges an invalidation.
	InvAck
	// FwdGetS forwards a read miss to the dirty owner.
	FwdGetS
	// FwdGetX forwards a write miss to the dirty owner.
	FwdGetX
	// OwnerData is the dirty owner supplying a block (to requester).
	OwnerData
	// OwnerDataMem is the dirty owner simultaneously updating memory.
	OwnerDataMem
	// PutX writes back a dirty block on replacement.
	PutX
	// PutAck acknowledges a PutX.
	PutAck
	// RMWReq is an atomic read-modify-write executed at the home (the
	// fetch-and-Φ style primitive used to build software locks).
	RMWReq
	// RMWReply carries the RMW result.
	RMWReply

	// --- Hardware barrier (Table 3) ---

	// BarrierArrive announces arrival at a barrier to the barrier's home.
	BarrierArrive
	// BarrierRelease releases one waiting participant.
	BarrierRelease

	// --- Reliable transport (fault plane) ---

	// NetAck acknowledges receipt of a transport-tracked message (its
	// XSeq); the sender's retransmit timer is cancelled on receipt. Sent
	// only when the interconnect fault plane is active. NetAck itself is
	// fire-and-forget: a lost ack is repaired by the retransmit/dedup
	// path, never by acking acks.
	NetAck

	kindCount // sentinel
)

var kindNames = [...]string{
	KindInvalid:     "invalid",
	ReadMiss:        "read-miss",
	ReadMissReply:   "read-miss-reply",
	WriteBack:       "write-back",
	ReadGlobalReq:   "read-global",
	ReadGlobalReply: "read-global-reply",
	WriteGlobalReq:  "write-global",
	WriteGlobalAck:  "write-global-ack",
	ReadUpdateReq:   "read-update",
	ReadUpdateReply: "read-update-reply",
	ResetUpdateReq:  "reset-update",
	UpdateProp:      "update-prop",
	SetPrevPtr:      "set-prev",
	SetNextPtr:      "set-next",
	LockReq:         "lock-req",
	LockFwd:         "lock-fwd",
	LockGrant:       "lock-grant",
	LockLinked:      "lock-linked",
	UnlockToHome:    "unlock-to-home",
	LockDequeue:     "lock-dequeue",
	LockDequeueAck:  "lock-dequeue-ack",
	GetS:            "gets",
	GetX:            "getx",
	DataS:           "data-s",
	DataX:           "data-x",
	Inv:             "inv",
	InvAck:          "inv-ack",
	FwdGetS:         "fwd-gets",
	FwdGetX:         "fwd-getx",
	OwnerData:       "owner-data",
	OwnerDataMem:    "owner-data-mem",
	PutX:            "putx",
	PutAck:          "put-ack",
	RMWReq:          "rmw",
	RMWReply:        "rmw-reply",
	BarrierArrive:   "barrier-arrive",
	BarrierRelease:  "barrier-release",
	NetAck:          "net-ack",
}

// String returns the message kind's name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "kind?"
}

// NumKinds is the number of defined message kinds (for stats arrays).
const NumKinds = int(kindCount)

// kindByName inverts kindNames for parsing serialized counters.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, name := range kindNames {
		if name != "" {
			m[name] = Kind(k)
		}
	}
	return m
}()

// KindFromString returns the Kind with the given String() name.
func KindFromString(s string) (Kind, bool) {
	k, ok := kindByName[s]
	return k, ok
}

// Class is the paper's message cost taxonomy.
type Class uint8

const (
	// Control is a transaction carrying no data (C_R).
	Control Class = iota
	// WordXfer carries a single word (C_W).
	WordXfer
	// Invalidation is an invalidation transaction (C_I).
	Invalidation
	// BlockXfer carries a whole block (C_B).
	BlockXfer
	numClasses
)

// NumClasses is the number of cost classes.
const NumClasses = int(numClasses)

// String returns the class's paper notation.
func (c Class) String() string {
	switch c {
	case Control:
		return "C_R"
	case WordXfer:
		return "C_W"
	case Invalidation:
		return "C_I"
	case BlockXfer:
		return "C_B"
	}
	return "C_?"
}

// ClassOf returns the cost class of a message kind.
func ClassOf(k Kind) Class {
	switch k {
	case ReadMissReply, ReadUpdateReply, UpdateProp, LockGrant, UnlockToHome,
		WriteBack, DataS, DataX, OwnerData, OwnerDataMem, PutX:
		return BlockXfer
	case WriteGlobalReq, ReadGlobalReply, RMWReply:
		return WordXfer
	case Inv:
		return Invalidation
	default:
		return Control
	}
}

// LockMode distinguishes shared from exclusive lock requests.
type LockMode uint8

const (
	// LockNone means no lock.
	LockNone LockMode = iota
	// LockRead is a shared (read) lock.
	LockRead
	// LockWrite is an exclusive (write) lock.
	LockWrite
)

// String returns the lock mode's name.
func (m LockMode) String() string {
	switch m {
	case LockNone:
		return "none"
	case LockRead:
		return "read-lock"
	case LockWrite:
		return "write-lock"
	}
	return "lock?"
}

// Compatible reports whether two lock modes may be held concurrently.
func (m LockMode) Compatible(o LockMode) bool {
	return m == LockRead && o == LockRead
}

// NoNeighbor is the wire encoding of a nil prev/next pointer in SetPrevPtr
// and SetNextPtr messages.
const NoNeighbor = -1

// Msg is the wire message. Fields beyond Kind/Src/Dst/Block are used only by
// the kinds that need them.
//
// A sender builds a Msg value and hands it to fabric.Send, which copies it,
// payload included, into a record from the fabric's free list; the network
// carries that record. A handler, and a fabric.OnSend observer, borrows
// the record only for the length of its call and never keeps it past the
// call: the fabric takes the record back after the last handler, zeroes it
// and hands it to a later Send. Whatever a controller keeps, it keeps by
// value, with its own copy of any payload. A record that a stale pointer
// still reaches reads as KindInvalid, which every controller refuses.
type Msg struct {
	Kind Kind
	// Src is the sending node; Dst the receiving node.
	Src, Dst int
	// Block is the memory block the message concerns.
	Block mem.Block
	// WordIdx selects a word within Block for word-granularity kinds.
	WordIdx int
	// Data carries block contents for block-transfer kinds.
	Data []mem.Word
	// Word carries a single word value.
	Word mem.Word
	// Mask carries per-word dirty bits for write-backs and unlocks.
	Mask mem.DirtyMask
	// Mode is the lock mode for CBL messages.
	Mode LockMode
	// Requester is the original requester when a message is forwarded
	// (LockFwd, FwdGetS, FwdGetX) or the subject of queue surgery.
	Requester int
	// Acks is the invalidation-ack count expected by a DataX receiver, or
	// similar small counters.
	Acks int
	// Seq tags write-buffer entries and other request/reply matching.
	Seq uint64
	// Aux carries kind-specific extra state (e.g. barrier id, RMW operand).
	Aux uint64
	// XSeq is the reliable transport's per-link sequence number (1-based;
	// 0 = untracked). It identifies the message for acknowledgment,
	// retransmission, duplicate suppression, and per-link FIFO reassembly
	// when the fault plane is active. For NetAck it names the acknowledged
	// message's XSeq. Protocol controllers never read or write it.
	XSeq uint64

	// refs counts the record's holders beyond the first: a fault-plane
	// duplicate is a second delivery of the same record.
	refs int32
}

// Retain adds a holder to a record: each holder lets go of it with one
// Release.
func (m *Msg) Retain() { m.refs++ }

// Release lets go of one holder and reports whether it was the last. The
// last Release zeroes the record, keeping its payload buffer for the next
// message the record carries.
func (m *Msg) Release() bool {
	if m.refs > 0 {
		m.refs--
		return false
	}
	*m = Msg{Data: m.Data[:0]}
	return true
}

// Words returns the payload size in words for network cost purposes.
func (m *Msg) Words() int {
	switch ClassOf(m.Kind) {
	case BlockXfer:
		return len(m.Data)
	case WordXfer:
		return 1
	default:
		return 0
	}
}
