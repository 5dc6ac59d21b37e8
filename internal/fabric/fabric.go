// Package fabric wires the protocol controllers to the interconnection
// network: it stamps and counts every message, applies the paper's timing
// parameters (t_D for a directory check, t_m for a main-memory block access),
// and provides the per-node service resources that serialize directory
// processing.
//
// The fabric owns every message record. Send copies the sender's Msg value,
// payload included, into a record from the sending fabric's free list
// (spare); the network carries the record, and the fabric takes it back
// once the last handler is done with it: after the node's dispatch returns,
// or, for a message a station holds through its directory check, after the
// station's receiver has processed it. The reliable transport takes back
// the acks and the duplicates it suppresses itself. A fault-plane duplicate
// is one record delivered twice (msg.Msg.Retain), returned after the
// second delivery, and a record the fault plane drops comes back to the
// sender at once. So once the free list has grown to the most records ever
// in flight at once, sending a message allocates nothing, faults or not.
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
// global message collector.
type Fabric struct {
	Eng  *sim.Engine
	Net  *network.Network
	Time Timing
	Coll *metrics.Collector
	// RMR attributes each shared reference — classified local vs remote by
	// the cache-side protocol controllers at their hit/miss decision points
	// — to the issuing processor.
	RMR *metrics.RMRAccount
	// OnSend, when set, observes every message at injection time (message
	// tracing / debugging). It borrows the message for the call: it must
	// neither mutate nor keep it.
	OnSend func(*msg.Msg)
	// xp is the reliable transport, enabled alongside the network's fault
	// plane (see transport.go); nil otherwise. kept holds its memory from
	// the first EnableTransport on, across Reset.
	xp   *transport
	kept *transport
	// node is the node a lane view serves, or -1 on a root, which serves
	// every node unless it has views.
	node int
	// hits holds the word-carrying completions scheduled by AfterWord.
	hits completions
	// spare is the free list of message records. Send takes from it, and
	// a record comes back to the list of the fabric its last handler ran
	// on: on many lanes records move from the sender's view to the
	// receiver's, and each list is touched only by its own lane.
	spare []*msg.Msg
	// views are the per-node fabrics viewed from this one, whose free
	// lists Reset deals out evenly again.
	views []*Fabric
}

// New builds a fabric over an engine and network.
func New(eng *sim.Engine, net *network.Network, t Timing) *Fabric {
	f := &Fabric{Eng: eng, Net: net, Time: t, Coll: &metrics.Collector{}, RMR: metrics.NewRMRAccount(net.Nodes()), node: -1}
	f.Reset()
	return f
}

// Reset returns the fabric to the state New builds, keeping its memory:
// the message collector, RMR rows and completion table are empty, OnSend is
// unset, and the reliable transport is emptied and off until
// EnableTransport turns it on again. Attached handlers, the free list of
// message records and the transport's tables are kept. A view's RMR
// account is its root's, which resetting either clears.
//
// Resetting a root also deals its views' free records out evenly again.
// A run leaves them on the views of the nodes that received more than they
// sent, so without the deal a machine reset and run again would leave
// those lists longer every run, and the sending nodes' views would make
// their records anew.
func (f *Fabric) Reset() {
	f.Coll.Reset()
	f.RMR.Reset()
	f.OnSend = nil
	f.hits.reset()
	if f.kept != nil {
		f.kept.reset()
	}
	f.xp = nil
	if len(f.views) > 0 {
		for _, v := range f.views {
			f.spare = append(f.spare, v.spare...)
			clear(v.spare)
			v.spare = v.spare[:0]
		}
		for i, m := range f.spare {
			v := f.views[i%len(f.views)]
			v.spare = append(v.spare, m)
		}
		clear(f.spare)
		f.spare = f.spare[:0]
	}
}

// View returns the fabric of node, bound to that node's lane engine in a
// parallel (PDES) run. The view shares the network, the timing parameters,
// and the RMR account with the root fabric — RMR rows are per-processor and
// only ever written by the owning node's lane — but owns its message
// collector and, once EnableTransport is called on it, its own transport
// instance (a node's transport touches only the sender state of its
// outgoing links and the receiver state of its incoming ones, and acks
// always land back on the sending node's view). Fold merges a view's
// counters into the root after the run.
func (f *Fabric) View(eng *sim.Engine, node int) *Fabric {
	v := &Fabric{Eng: eng, Net: f.Net, Time: f.Time, Coll: &metrics.Collector{}, RMR: f.RMR, node: node}
	f.views = append(f.views, v)
	return v
}

// Fold adds view v's message and transport counters to f, the fabric it
// was viewed from. A root whose nodes all run on views carries no traffic
// of its own, so once every view is folded its counters are the machine's.
// Sums are order-independent: the totals are identical at any worker
// count. Call Fold after the run.
func (f *Fabric) Fold(v *Fabric) {
	f.Coll.Add(v.Coll)
	if v.xp != nil {
		f.xp.retries += v.xp.retries
		f.xp.dupSuppressed += v.xp.dupSuppressed
		f.xp.reordered += v.xp.reordered
		f.xp.acksSent += v.xp.acksSent
	}
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
	if k := len(f.spare); k > 0 {
		r, f.spare = f.spare[k-1], f.spare[:k-1]
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
		f.spare = append(f.spare, m)
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
	if f.OnSend != nil {
		f.OnSend(m)
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
	f.Eng.AfterStep(d, &f.hits, f.hits.put(done, w))
}

// completions is a slot table of pending word-carrying completions; a
// slot's index rides in its event's arg. Several can be in flight on one
// node at once, so freed slots are reused through a free list threaded
// through the table itself.
type completions struct {
	slots []completion
	free  uint64 // 1 + index of the first free slot; 0 when none is free
}

type completion struct {
	done func(mem.Word)
	w    mem.Word
	next uint64 // while the slot is free: the free list's next link
}

// reset empties the table, keeping its memory.
func (c *completions) reset() {
	clear(c.slots)
	c.slots, c.free = c.slots[:0], 0
}

func (c *completions) put(done func(mem.Word), w mem.Word) uint64 {
	if c.free == 0 {
		c.slots = append(c.slots, completion{})
		c.free = uint64(len(c.slots))
	}
	i := c.free - 1
	c.free = c.slots[i].next
	c.slots[i] = completion{done: done, w: w}
	return i
}

// OnStep implements sim.Stepper: it frees slot i and runs its completion.
func (c *completions) OnStep(i uint64) {
	s := c.slots[i]
	c.slots[i] = completion{next: c.free}
	c.free = i + 1
	s.done(s.w)
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
