package ruc

import (
	"fmt"
	"slices"

	"ssmp/internal/fabric"
	"ssmp/internal/mem"
	"ssmp/internal/msg"
)

// Home is the memory-side RUC controller for the blocks homed at one node:
// the backing store plus the central-directory state (the update-subscriber
// chain per block).
type Home struct {
	f       *fabric.Fabric
	id      int
	geom    mem.Geometry
	store   *mem.Store
	station fabric.Station

	// WriteUpdateMode switches the home to classic sender-initiated
	// write-update (Firefly/Dragon style, the scheme §4.1 contrasts
	// with): every read miss subscribes the reader implicitly and the
	// subscription is "remembered forever until the line is replaced by
	// the reader" — no READ-UPDATE needed, no RESET-UPDATE issued by
	// software. Used to measure the reader-initiated scheme's advantage
	// on phased access patterns.
	WriteUpdateMode bool

	// subs mirrors the subscriber chain per block, head first. The mirror
	// is the serialization point for splices; propagation follows the
	// cache-line pointers. It is nil until the first subscription.
	subs map[mem.Block][]int

	// Propagations counts update-chain propagations initiated.
	Propagations uint64
}

// NewHome builds the home-side controller over the node's memory module.
func NewHome(f *fabric.Fabric, id int, geom mem.Geometry, store *mem.Store) *Home {
	h := &Home{f: f, id: id, geom: geom, store: store, station: fabric.NewStation(f)}
	h.Reset()
	return h
}

// Reset returns the controller to the state NewHome builds: no subscriber
// chain, the station idle, no propagation counted. The store (reset by its
// owner) and WriteUpdateMode are kept.
func (h *Home) Reset() {
	h.station.Reset()
	clear(h.subs)
	h.Propagations = 0
}

// Store exposes the backing store (tests, machine assembly).
func (h *Home) Store() *mem.Store { return h.store }

// Subscribers returns a copy of the current subscriber chain for a block,
// head first.
func (h *Home) Subscribers(b mem.Block) []int {
	return append([]int(nil), h.subs[b]...)
}

// Handles reports whether the home controller consumes this message kind.
func (h *Home) Handles(k msg.Kind) bool {
	switch k {
	case msg.ReadMiss, msg.WriteBack, msg.ReadGlobalReq, msg.WriteGlobalReq,
		msg.ReadUpdateReq, msg.ResetUpdateReq:
		return true
	}
	return false
}

// Handle processes an inbound message after the central-directory check
// delay; block reads from memory add the memory cycle time.
func (h *Home) Handle(m *msg.Msg) {
	switch m.Kind {
	case msg.ReadMiss, msg.ReadUpdateReq, msg.ReadGlobalReq:
		// These read memory.
		h.station.ProcessAfter(h.f.Time.TMem, h, m)
	default:
		h.station.Process(h, m)
	}
}

// OnDeliver implements sim.Receiver: the station's check is done.
func (h *Home) OnDeliver(m any) { h.process(m.(*msg.Msg)) }

func (h *Home) checkHome(b mem.Block) {
	if h.geom.Home(b) != h.id {
		panic(fmt.Sprintf("ruc: block %d handled by wrong home %d", b, h.id))
	}
}

func (h *Home) process(m *msg.Msg) {
	h.checkHome(m.Block)
	switch m.Kind {
	case msg.ReadMiss:
		if h.WriteUpdateMode {
			// Sender-initiated mode: a read miss subscribes the
			// reader implicitly.
			h.subscribe(m)
			return
		}
		h.f.Send(msg.Msg{
			Kind: msg.ReadMissReply, Src: h.id, Dst: m.Src,
			Block: m.Block, Data: h.store.Block(m.Block),
		})

	case msg.WriteBack:
		h.store.Merge(m.Block, m.Data, m.Mask)
		if m.Aux == 1 {
			h.unsubscribe(m.Block, m.Src)
		}

	case msg.ReadGlobalReq:
		h.f.Send(msg.Msg{
			Kind: msg.ReadGlobalReply, Src: h.id, Dst: m.Src,
			Block: m.Block, WordIdx: m.WordIdx,
			Word: h.store.ReadWord(h.geom.BaseAddr(m.Block) + mem.Addr(m.WordIdx)),
		})

	case msg.WriteGlobalReq:
		h.store.WriteWord(h.geom.BaseAddr(m.Block)+mem.Addr(m.WordIdx), m.Word)
		// The ack signals that the write is performed at memory; chain
		// propagation proceeds asynchronously (§2: the requester needn't
		// wait for the operation to be globally performed).
		h.f.Send(msg.Msg{Kind: msg.WriteGlobalAck, Src: h.id, Dst: m.Src, Block: m.Block, Seq: m.Seq})
		if chain := h.subs[m.Block]; len(chain) > 0 {
			h.Propagations++
			h.f.Send(msg.Msg{Kind: msg.UpdateProp, Src: h.id, Dst: chain[0], Block: m.Block, Data: h.store.Block(m.Block)})
		}

	case msg.ReadUpdateReq:
		h.subscribe(m)

	case msg.ResetUpdateReq:
		h.unsubscribe(m.Block, m.Src)

	default:
		panic(fmt.Sprintf("ruc: home %d cannot handle %v", h.id, m.Kind))
	}
}

// subscribe links the requester at the head of the block's update chain and
// replies with the data (ReadUpdateReply links the node-side pointers).
func (h *Home) subscribe(m *msg.Msg) {
	chain := h.subs[m.Block]
	oldHead := msg.NoNeighbor
	if len(chain) > 0 {
		oldHead = chain[0]
	}
	if contains(chain, m.Src) {
		// Idempotent re-subscription (the node's line lost its update
		// bit without the home hearing, e.g. a replaced line
		// re-subscribing before the reset was processed).
		h.f.Send(msg.Msg{
			Kind: msg.ReadUpdateReply, Src: h.id, Dst: m.Src,
			Block: m.Block, Data: h.store.Block(m.Block),
			Aux: uint64(int64(nextOf(chain, m.Src))),
		})
		return
	}
	if h.subs == nil {
		h.subs = make(map[mem.Block][]int)
	}
	chain = append(chain, 0)
	copy(chain[1:], chain)
	chain[0] = m.Src
	h.subs[m.Block] = chain
	h.f.Send(msg.Msg{
		Kind: msg.ReadUpdateReply, Src: h.id, Dst: m.Src,
		Block: m.Block, Data: h.store.Block(m.Block),
		Aux: uint64(int64(oldHead)),
	})
	if oldHead != msg.NoNeighbor {
		h.f.Send(msg.Msg{Kind: msg.SetPrevPtr, Src: h.id, Dst: oldHead, Block: m.Block, Requester: m.Src})
	}
}

// unsubscribe splices a node out of the block's chain and rewrites the
// neighbours' pointers. Unsubscribing an absent node is a no-op (write-back
// and explicit reset can race).
func (h *Home) unsubscribe(b mem.Block, node int) {
	chain := h.subs[b]
	idx := -1
	for i, n := range chain {
		if n == node {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	prev, next := msg.NoNeighbor, msg.NoNeighbor
	if idx > 0 {
		prev = chain[idx-1]
	}
	if idx < len(chain)-1 {
		next = chain[idx+1]
	}
	// An empty chain keeps its memory for the next subscriber.
	h.subs[b] = slices.Delete(chain, idx, idx+1)
	if prev != msg.NoNeighbor {
		h.f.Send(msg.Msg{Kind: msg.SetNextPtr, Src: h.id, Dst: prev, Block: b, Requester: next})
	}
	if next != msg.NoNeighbor {
		h.f.Send(msg.Msg{Kind: msg.SetPrevPtr, Src: h.id, Dst: next, Block: b, Requester: prev})
	}
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func nextOf(chain []int, node int) int {
	for i, n := range chain {
		if n == node && i < len(chain)-1 {
			return chain[i+1]
		}
	}
	return msg.NoNeighbor
}
