// Package fabric wires the protocol controllers to the interconnection
// network: it stamps and counts every message, applies the paper's timing
// parameters (t_D for a directory check, t_m for a main-memory block access),
// and provides the per-node service resources that serialize directory
// processing.
//
// The fabric owns every message record. Send copies the sender's Msg value,
// payload included, into a record from the free list (spare), which a root
// fabric shares with its lane views; the network carries the record, and
// the fabric takes it back once the last handler is done with it: after
// the node's dispatch returns, or, for a message a station holds through
// its directory check, after the station's receiver has processed it. The
// reliable transport takes back the acks and the duplicates it suppresses
// itself. A fault-plane duplicate is one record delivered twice
// (msg.Msg.Retain), returned after the second delivery, and a record the
// fault plane drops comes back to the sender at once. So once the free
// list has grown to the most records ever in flight at once, sending a
// message allocates nothing, faults or not.
package fabric

import (
	"ssmp/internal/mem"
	"ssmp/internal/metrics"
	"ssmp/internal/msg"
	"ssmp/internal/network"
	"ssmp/internal/sim"
)

// Timing holds the machine's latency parameters in cycles, named after the
// paper's cost-model symbols (§5.1, Table 4).
type Timing struct {
	// CacheHit is the cost of a cache hit (one cache cycle).
	CacheHit sim.Time
	// TDir is t_D: the time to check the central directory or a cache
	// directory.
	TDir sim.Time
	// TMem is t_m: the main-memory cycle time for reading a block
	// (Table 4: 4 cache cycles).
	TMem sim.Time
}

// DefaultTiming returns the Table 4 parameter values.
func DefaultTiming() Timing {
	return Timing{CacheHit: 1, TDir: 1, TMem: 4}
}

// Fabric bundles the engine, the network, the timing parameters, and the
// global message collector. A lane view (View) shares its root's collector,
// RMR account, OnSend observer and free list.
type Fabric struct {
	Eng  *sim.Engine
	Net  *network.Network
	Time Timing
	Coll *metrics.Collector
	// RMR attributes each shared reference — classified local vs remote by
	// the cache-side protocol controllers at their hit/miss decision points
	// — to the issuing processor.
	RMR *metrics.RMRAccount
	// OnSend, when set on a root, observes every message its views and it
	// inject, at injection time (message tracing / debugging). It borrows
	// the message for the call: it must neither mutate nor keep it.
	OnSend func(*msg.Msg)
	// xp is the reliable transport, enabled alongside the network's fault
	// plane (see transport.go); nil otherwise. kept holds its memory from
	// the first EnableTransport on, across Reset.
	xp   *transport
	kept *transport
	// node is the node a lane view serves, or -1 on a root, which serves
	// every node unless it has views.
	node int
	// root is the fabric a view was viewed from, or the root itself.
	root *Fabric
	// hits holds the word-carrying completions scheduled by AfterWord.
	hits completions
	// blocks holds the block-carrying sends scheduled by SendBlockAfter.
	blocks blockSends
	// spare is a root's free list of message records, which its views
	// share: Send takes from it, and a record comes back to it after its
	// last handler.
	spare []*msg.Msg
	// views are the per-node fabrics viewed from this one.
	views []*Fabric
}

// New builds a fabric over an engine and network.
func New(eng *sim.Engine, net *network.Network, t Timing) *Fabric {
	f := &Fabric{Eng: eng, Net: net, Time: t, Coll: &metrics.Collector{}, RMR: metrics.NewRMRAccount(net.Nodes()), node: -1}
	f.root, f.blocks.f = f, f
	f.Reset()
	return f
}

// Reset returns the fabric to the state New builds, keeping its memory:
// the message collector, RMR rows and completion tables are empty, OnSend
// is unset, and the reliable transport is emptied and off until
// EnableTransport turns it on again. Attached handlers, the free list of
// message records and the transport's tables are kept. A view's collector
// and RMR account are its root's, which resetting either clears.
func (f *Fabric) Reset() {
	f.Coll.Reset()
	f.RMR.Reset()
	f.OnSend = nil
	f.hits.reset()
	f.blocks.reset()
	if f.kept != nil {
		f.kept.reset()
	}
	f.xp = nil
}

// View returns the fabric of node, bound to that node's lane engine in a
// parallel (PDES) run. The view shares the network, the timing parameters,
// the message collector, the RMR account, the OnSend observer and the free
// list of message records with the root fabric: every lane runs on one
// goroutine. Its engine, completion tables and, once EnableTransport is
// called on it, its transport instance are its own, since they schedule on
// its lane (a node's transport touches only the sender state of its
// outgoing links and the receiver state of its incoming ones, and acks
// always land back on the sending node's view).
func (f *Fabric) View(eng *sim.Engine, node int) *Fabric {
	v := &Fabric{Eng: eng, Net: f.Net, Time: f.Time, Coll: f.Coll, RMR: f.RMR, node: node, root: f}
	v.blocks.f = v
	f.views = append(f.views, v)
	return v
}

// Send counts and transmits a message. It copies m, payload included, into
// a record from the free list, so a sender may pass a cache line's or a
// memory module's own words as the payload and keep no copy of its own.
// The message's Words() determine its network occupancy. With the reliable
// transport enabled, the message is tracked for acknowledgment and
// retransmission before injection.
func (f *Fabric) Send(m msg.Msg) { f.send(f.take(&m)) }

// take returns a record from the free list, or a new one when the list is
// empty, holding a copy of m with its own copy of m's payload.
func (f *Fabric) take(m *msg.Msg) *msg.Msg {
	var r *msg.Msg
	root := f.root
	if k := len(root.spare); k > 0 {
		r, root.spare = root.spare[k-1], root.spare[:k-1]
	} else {
		r = new(msg.Msg)
	}
	buf := r.Data
	*r = *m
	r.Data = append(buf[:0], m.Data...)
	return r
}

// free lets go of one holder of record m, and returns m to the free list
// when that was the last.
func (f *Fabric) free(m *msg.Msg) {
	if m.Release() {
		f.root.spare = append(f.root.spare, m)
	}
}

// send transmits a record taken from the free list: it is Send after the
// copy.
func (f *Fabric) send(m *msg.Msg) {
	if f.xp != nil && m.Kind != msg.NetAck && !f.Net.LocalBypass(m.Src, m.Dst) {
		f.xp.track(m)
	}
	f.sendRaw(m)
}

// sendRaw counts and injects without transport tracking: first
// transmissions, retransmissions (each is real traffic and counts as such),
// and acks all pass through here.
func (f *Fabric) sendRaw(m *msg.Msg) {
	f.Coll.Count(m.Kind)
	if on := f.root.OnSend; on != nil {
		on(m)
	}
	if f.Net.Send(m.Src, m.Dst, m.Words(), m) {
		// Dropped by the fault plane: a tracked message lives on as
		// its transport slot's copy, so the record is free at once.
		f.free(m)
	}
}

// AfterWord schedules done(w) d cycles from now as a typed event, so a
// cache hit's completion allocates no closure. It draws the same time,
// sequence number and jitter key as the closure form eng.After would.
func (f *Fabric) AfterWord(d sim.Time, done func(mem.Word), w mem.Word) {
	f.Eng.AfterStep(d, &f.hits, f.hits.put(completion{done, w}))
}

// SendBlockAfter sends m d cycles from now, carrying its block as store
// holds it then: a reply or grant that waits out a memory read. It is a
// typed event, so it allocates nothing once the table has grown to the
// most such sends ever pending at once, and it draws the same time,
// sequence number and jitter key as the closure form eng.After would.
func (f *Fabric) SendBlockAfter(d sim.Time, m msg.Msg, store *mem.Store) {
	f.Eng.AfterStep(d, &f.blocks, f.blocks.put(blockSend{m, store}))
}

// slotTable holds the state of pending typed events of one kind; a slot's
// index rides in its event's arg. Several can be in flight on one node at
// once, so freed slots are reused through a free list threaded through the
// table itself, and scheduling allocates nothing once the table has grown
// to the most events ever pending at once.
type slotTable[T any] struct {
	slots []slot[T]
	free  uint64 // 1 + index of the first free slot; 0 when none is free
}

type slot[T any] struct {
	v    T
	next uint64 // while the slot is free: the free list's next link
}

// reset empties the table, keeping its memory.
func (t *slotTable[T]) reset() {
	clear(t.slots)
	t.slots, t.free = t.slots[:0], 0
}

// put stores v in a free slot and returns the slot's index.
func (t *slotTable[T]) put(v T) uint64 {
	if t.free == 0 {
		t.slots = append(t.slots, slot[T]{})
		t.free = uint64(len(t.slots))
	}
	i := t.free - 1
	t.free = t.slots[i].next
	t.slots[i] = slot[T]{v: v}
	return i
}

// take frees slot i and returns what it held.
func (t *slotTable[T]) take(i uint64) T {
	v := t.slots[i].v
	t.slots[i] = slot[T]{next: t.free}
	t.free = i + 1
	return v
}

// completions holds the word-carrying completions AfterWord schedules.
type completions struct{ slotTable[completion] }

type completion struct {
	done func(mem.Word)
	w    mem.Word
}

// OnStep implements sim.Stepper: it frees slot i and runs its completion.
func (c *completions) OnStep(i uint64) {
	s := c.take(i)
	s.done(s.w)
}

// blockSends holds the sends SendBlockAfter schedules.
type blockSends struct {
	f *Fabric
	slotTable[blockSend]
}

type blockSend struct {
	m     msg.Msg
	store *mem.Store
}

// OnStep implements sim.Stepper: it frees slot i, and the slot's message
// reads its block and goes out.
func (b *blockSends) OnStep(i uint64) {
	s := b.take(i)
	s.m.Data = s.store.Block(s.m.Block)
	b.f.Send(s.m)
}

// Attach registers node's protocol dispatch with the network, interposing
// the reliable transport while it is enabled. Components that attach
// through the fabric get exactly-once, per-link-FIFO delivery whether or
// not the fault plane is active. h borrows each message for its call: the
// fabric takes the record back when h returns, unless a station holds it.
func (f *Fabric) Attach(node int, h func(*msg.Msg)) {
	f.Net.Attach(node, func(p any) {
		m := p.(*msg.Msg)
		if f.xp != nil {
			f.xp.receive(node, m, h)
			return
		}
		h(m)
		f.free(m)
	})
}

// Station is a per-node message-processing front end: incoming messages are
// serialized through a directory-check resource (t_D each) before their
// handler runs. Both cache directories and the central directory use one,
// held by value in the controller, whose receiver it delivers to.
type Station struct {
	f   *Fabric
	rcv sim.Receiver
	res sim.Resource
}

// NewStation returns a station on the fabric.
func NewStation(f *Fabric) Station { return Station{f: f} }

// Reset makes the station idle with no cycles counted and no receiver
// named yet, as NewStation builds it.
func (s *Station) Reset() { s.rcv = nil; s.res.Reset() }

// Process schedules rcv.OnDeliver(m) after the station's directory-check
// delay, honoring queueing at the directory. It is a typed event, so a
// message's processing allocates no closure, and it draws the same time,
// sequence number and jitter key as the closure form eng.At would. The
// station holds m until then (msg.Msg.Retain) and lets go of it once
// rcv.OnDeliver returns. A station serves one receiver, its controller:
// every call names the same rcv.
func (s *Station) Process(rcv sim.Receiver, m *msg.Msg) { s.ProcessAfter(0, rcv, m) }

// ProcessAfter is Process after the directory check plus an extra delay
// (e.g. t_m for a memory block read). The station is occupied for the whole
// duration: the directory and its memory module service one transaction at
// a time.
func (s *Station) ProcessAfter(extra sim.Time, rcv sim.Receiver, m *msg.Msg) {
	done := s.res.Acquire(s.f.Eng.Now(), s.f.Time.TDir+extra)
	m.Retain()
	s.rcv = rcv
	s.f.Eng.AtDeliver(done, (*inbound)(s), m)
}

// Send transmits m once a directory check at the station is done: m waits
// behind the messages the station is processing, occupies it for t_D, and
// leaves when the check ends, as a directory that serializes the
// notifications it sends (the barrier home's releases). The copy of m is
// taken from the free list at once and sent, counted and tracked when it
// leaves. Like Process, it is a typed event drawing the key eng.At would.
func (s *Station) Send(m msg.Msg) {
	done := s.res.Acquire(s.f.Eng.Now(), s.f.Time.TDir)
	s.f.Eng.AtDeliver(done, (*outbound)(s.f), s.f.take(&m))
}

// inbound is a station as the target of its delivery events: it hands the
// message to the station's receiver, then lets go of it.
type inbound Station

func (s *inbound) OnDeliver(p any) {
	m := p.(*msg.Msg)
	s.rcv.OnDeliver(m)
	s.f.free(m)
}

// outbound is a fabric as the target of a station's Send events: it sends
// the record the event carries.
type outbound Fabric

func (f *outbound) OnDeliver(p any) { (*Fabric)(f).send(p.(*msg.Msg)) }

// Busy returns the cycles the station has been occupied.
func (s *Station) Busy() sim.Time { return s.res.Busy }
