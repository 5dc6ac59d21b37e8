package ruc

import (
	"fmt"

	"ssmp/internal/cache"
	"ssmp/internal/fabric"
	"ssmp/internal/mem"
	"ssmp/internal/msg"
	"ssmp/internal/wbuf"
)

// Node is the cache-side RUC controller of one processor node. Exactly one
// demand request (read/write miss, read-global, read-update) may be
// outstanding at a time — the processor model is blocking — while
// write-buffer traffic and inbound propagations flow concurrently.
type Node struct {
	f       *fabric.Fabric
	id      int
	geom    mem.Geometry
	cache   *cache.Cache
	station fabric.Station

	// The single outstanding demand request: its kind, block and word,
	// and its completion: pendDone, or for a write that missed, pendWrote
	// once pendVal is written into the fetched line.
	pendBlock mem.Block
	pendWord  int
	pendDone  func(mem.Word)
	pendWrote func()
	pendVal   mem.Word
	pendKind  msg.Kind

	// onGlobalAck retires write-buffer entries; wired by the machine.
	onGlobalAck func(seq uint64)

	// WholeLineWriteBack disables the paper's per-word dirty bits: a
	// replaced dirty line writes back ALL of its words, recreating the
	// false-sharing lost-update problem of §3 issue 6. Ablation only —
	// with it enabled, two caches writing different words of one block
	// can silently destroy each other's updates.
	WholeLineWriteBack bool

	// UpdatesApplied counts inbound propagations applied to a line.
	UpdatesApplied uint64
	// UpdatesDropped counts propagations that found no line (replaced
	// mid-flight).
	UpdatesDropped uint64
}

// NewNode builds the cache-side controller.
func NewNode(f *fabric.Fabric, id int, geom mem.Geometry, c *cache.Cache) *Node {
	n := &Node{f: f, id: id, geom: geom, cache: c, station: fabric.NewStation(f)}
	n.Reset()
	return n
}

// Reset returns the controller to the state NewNode builds: no request
// outstanding, the station idle, every counter zero. The cache (reset by
// its owner), the global-ack handler and WholeLineWriteBack are kept.
func (n *Node) Reset() {
	n.station.Reset()
	n.pendBlock, n.pendWord, n.pendDone, n.pendKind = 0, 0, nil, 0
	n.pendWrote, n.pendVal = nil, 0
	n.UpdatesApplied, n.UpdatesDropped = 0, 0
}

// SetGlobalAckHandler wires write-global acknowledgments to the write
// buffer.
func (n *Node) SetGlobalAckHandler(fn func(seq uint64)) { n.onGlobalAck = fn }

// Cache exposes the node's cache (for inspection by tests and the machine).
func (n *Node) Cache() *cache.Cache { return n.cache }

// outstanding reports whether a demand request is outstanding.
func (n *Node) outstanding() bool { return n.pendDone != nil || n.pendWrote != nil }

func (n *Node) setPending(k msg.Kind, b mem.Block, word int, done func(mem.Word)) {
	if n.outstanding() {
		panic(fmt.Sprintf("ruc: node %d issued %v with %v outstanding", n.id, k, n.pendKind))
	}
	n.pendKind, n.pendBlock, n.pendWord, n.pendDone = k, b, word, done
}

func (n *Node) completePending(k msg.Kind, b mem.Block, w mem.Word) {
	if !n.outstanding() || n.pendKind != k || n.pendBlock != b {
		panic(fmt.Sprintf("ruc: node %d got %v reply for block %d with no matching request", n.id, k, b))
	}
	if wrote := n.pendWrote; wrote != nil {
		// Write-allocate: the fetched line takes the written word.
		n.pendWrote = nil
		l := n.cache.Peek(b)
		if l == nil {
			panic("ruc: write-allocate line vanished")
		}
		l.Data[n.pendWord] = n.pendVal
		l.Dirty.Set(n.pendWord)
		wrote()
		return
	}
	done := n.pendDone
	n.pendDone = nil
	done(w)
}

// Read performs the READ primitive: a private read, serviced by the cache
// when possible, fetching the block from its home on a miss. done receives
// the word's value.
func (n *Node) Read(a mem.Addr, done func(mem.Word)) {
	b := n.geom.BlockOf(a)
	wi := n.geom.WordIndex(a)
	if l := n.cache.Lookup(b); l != nil {
		n.f.RMR.LocalHit(n.id)
		n.f.AfterWord(n.f.Time.CacheHit, done, l.Data[wi])
		return
	}
	n.setPending(msg.ReadMiss, b, wi, done)
	n.f.RMR.RemoteRef(n.id)
	n.f.Send(msg.Msg{Kind: msg.ReadMiss, Src: n.id, Dst: n.geom.Home(b), Block: b})
}

// Write performs the WRITE primitive: a private write with write-allocate.
// Only the written word's dirty bit is set; no coherence action is taken.
func (n *Node) Write(a mem.Addr, w mem.Word, done func()) {
	b := n.geom.BlockOf(a)
	wi := n.geom.WordIndex(a)
	if l := n.cache.Lookup(b); l != nil {
		n.f.RMR.LocalHit(n.id)
		l.Data[wi] = w
		l.Dirty.Set(wi)
		n.f.Eng.After(n.f.Time.CacheHit, done)
		return
	}
	n.setPending(msg.ReadMiss, b, wi, nil)
	n.pendWrote, n.pendVal = done, w
	n.f.RMR.RemoteRef(n.id)
	n.f.Send(msg.Msg{Kind: msg.ReadMiss, Src: n.id, Dst: n.geom.Home(b), Block: b})
}

// ReadGlobal performs READ-GLOBAL: reads the word from main memory,
// bypassing the local cache entirely.
func (n *Node) ReadGlobal(a mem.Addr, done func(mem.Word)) {
	b := n.geom.BlockOf(a)
	wi := n.geom.WordIndex(a)
	n.setPending(msg.ReadGlobalReq, b, wi, done)
	n.f.RMR.RemoteRef(n.id)
	n.f.Send(msg.Msg{Kind: msg.ReadGlobalReq, Src: n.id, Dst: n.geom.Home(b), Block: b, WordIdx: wi})
}

// IssueWriteGlobal transmits one write-buffer entry to the block's home.
// It is installed as the write buffer's send function; the home's
// WriteGlobalAck retires the entry via the handler set with
// SetGlobalAckHandler. If the node caches the block, its own copy is
// updated in place (the writer sees its own write).
func (n *Node) IssueWriteGlobal(e wbuf.Entry) {
	if l := n.cache.Peek(e.Block); l != nil {
		l.Data[e.WordIdx] = e.Word
	}
	n.f.RMR.RemoteRef(n.id)
	n.f.Send(msg.Msg{
		Kind: msg.WriteGlobalReq, Src: n.id, Dst: n.geom.Home(e.Block),
		Block: e.Block, WordIdx: e.WordIdx, Word: e.Word, Seq: e.Seq,
	})
}

// ReadUpdate performs READ-UPDATE: returns the word and subscribes this
// node to future updates of the block. If the line is already subscribed
// the request is serviced locally (§4.1).
func (n *Node) ReadUpdate(a mem.Addr, done func(mem.Word)) {
	b := n.geom.BlockOf(a)
	wi := n.geom.WordIndex(a)
	if l := n.cache.Lookup(b); l != nil && l.Update {
		n.f.RMR.LocalHit(n.id)
		n.f.AfterWord(n.f.Time.CacheHit, done, l.Data[wi])
		return
	}
	n.setPending(msg.ReadUpdateReq, b, wi, done)
	n.f.RMR.RemoteRef(n.id)
	n.f.Send(msg.Msg{Kind: msg.ReadUpdateReq, Src: n.id, Dst: n.geom.Home(b), Block: b})
}

// ResetUpdate performs RESET-UPDATE: cancels this node's subscription. The
// processor does not wait for the home to splice the chain; the local
// update bit clears immediately. Resetting an unsubscribed block is a
// no-op.
func (n *Node) ResetUpdate(a mem.Addr, done func()) {
	b := n.geom.BlockOf(a)
	l := n.cache.Peek(b)
	if l == nil || !l.Update {
		n.f.RMR.LocalHit(n.id)
		n.f.Eng.After(n.f.Time.CacheHit, done)
		return
	}
	l.Update = false
	n.f.RMR.RemoteRef(n.id)
	n.f.Send(msg.Msg{Kind: msg.ResetUpdateReq, Src: n.id, Dst: n.geom.Home(b), Block: b})
	n.f.Eng.After(n.f.Time.CacheHit, done)
}

// install places a received block into the cache, handling the displaced
// victim: dirty words are written back, and a subscribed victim is
// unsubscribed as part of the write-back (or with an explicit reset when
// clean).
func (n *Node) install(b mem.Block, data []mem.Word) *cache.Line {
	l, victim, evicted := n.cache.Allocate(b)
	copy(l.Data, data)
	if evicted {
		home := n.geom.Home(victim.Block)
		switch {
		case victim.Dirty.Any():
			n.f.RMR.Writeback(n.id)
			aux := uint64(0)
			if victim.Update {
				aux = 1 // fold the unsubscribe into the write-back
			}
			mask := victim.Dirty
			if n.WholeLineWriteBack {
				mask = mem.Full(n.geom.BlockWords)
			}
			n.f.Send(msg.Msg{
				Kind: msg.WriteBack, Src: n.id, Dst: home,
				Block: victim.Block, Data: victim.Data, Mask: mask, Aux: aux,
			})
		case victim.Update:
			n.f.Send(msg.Msg{Kind: msg.ResetUpdateReq, Src: n.id, Dst: home, Block: victim.Block})
		}
	}
	return l
}

// Handles reports whether the node controller consumes this message kind.
func (n *Node) Handles(k msg.Kind) bool {
	switch k {
	case msg.ReadMissReply, msg.ReadGlobalReply, msg.WriteGlobalAck,
		msg.ReadUpdateReply, msg.UpdateProp, msg.SetPrevPtr, msg.SetNextPtr:
		return true
	}
	return false
}

// Handle processes an inbound message after the cache-directory check
// delay.
func (n *Node) Handle(m *msg.Msg) { n.station.Process(n, m) }

// OnDeliver implements sim.Receiver: the station's check is done.
func (n *Node) OnDeliver(m any) { n.process(m.(*msg.Msg)) }

func (n *Node) process(m *msg.Msg) {
	switch m.Kind {
	case msg.ReadMissReply:
		l := n.install(m.Block, m.Data)
		n.completePending(msg.ReadMiss, m.Block, l.Data[n.pendWord])

	case msg.ReadGlobalReply:
		n.completePending(msg.ReadGlobalReq, m.Block, m.Word)

	case msg.WriteGlobalAck:
		if n.onGlobalAck == nil {
			panic("ruc: write-global ack with no handler wired")
		}
		n.onGlobalAck(m.Seq)

	case msg.ReadUpdateReply:
		l := n.cache.Peek(m.Block)
		if l == nil {
			l = n.install(m.Block, m.Data)
		} else {
			// Refresh clean words; locally dirty words are newer
			// from this node's perspective.
			for i := range l.Data {
				if !l.Dirty.Has(i) {
					l.Data[i] = m.Data[i]
				}
			}
		}
		l.Update = true
		l.Prev = cache.NoNode
		l.Next = int(int64(m.Aux)) // previous head, NoNeighbor if none
		// Under the home's sender-initiated write-update mode, a plain
		// read miss is answered with a linking reply too.
		want := msg.ReadUpdateReq
		if n.pendKind == msg.ReadMiss {
			want = msg.ReadMiss
		}
		n.completePending(want, m.Block, l.Data[n.pendWord])

	case msg.UpdateProp:
		l := n.cache.Peek(m.Block)
		if l == nil {
			n.UpdatesDropped++
			return
		}
		for i := range l.Data {
			if !l.Dirty.Has(i) {
				l.Data[i] = m.Data[i]
			}
		}
		n.UpdatesApplied++
		if l.Next != cache.NoNode && l.Next != n.id {
			n.f.Send(msg.Msg{Kind: msg.UpdateProp, Src: n.id, Dst: l.Next, Block: m.Block, Data: m.Data})
		}

	case msg.SetPrevPtr:
		if l := n.cache.Peek(m.Block); l != nil {
			l.Prev = m.Requester
		}

	case msg.SetNextPtr:
		if l := n.cache.Peek(m.Block); l != nil {
			l.Next = m.Requester
		}

	default:
		panic(fmt.Sprintf("ruc: node %d cannot handle %v", n.id, m.Kind))
	}
}
