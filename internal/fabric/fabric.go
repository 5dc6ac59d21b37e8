// Package fabric wires the protocol controllers to the interconnection
// network: it stamps and counts every message, applies the paper's timing
// parameters (t_D for a directory check, t_m for a main-memory block access),
// and provides the per-node service resources that serialize directory
// processing.
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
	// tracing / debugging). It must not mutate the message.
	OnSend func(*msg.Msg)
	// xp is the reliable transport, enabled alongside the network's fault
	// plane (see transport.go); nil otherwise.
	xp *transport
	// hits holds the word-carrying completions scheduled by AfterWord.
	hits completions
}

// New builds a fabric over an engine and network.
func New(eng *sim.Engine, net *network.Network, t Timing) *Fabric {
	f := &Fabric{Eng: eng, Net: net, Time: t, Coll: &metrics.Collector{}, RMR: metrics.NewRMRAccount(net.Nodes())}
	f.Reset()
	return f
}

// Reset returns the fabric to the state New builds, keeping its memory:
// the message collector, RMR rows and completion table are empty, OnSend is
// unset, and the reliable transport is off until EnableTransport builds a
// new one. Attached handlers are kept. A view's RMR account is its root's,
// which resetting either clears.
func (f *Fabric) Reset() {
	f.Coll.Reset()
	f.RMR.Reset()
	f.OnSend = nil
	f.hits.reset()
	f.xp = nil
}

// View returns a per-node fabric bound to one lane engine of a parallel
// (PDES) run. The view shares the network, the timing parameters, and the
// RMR account with the root fabric — RMR rows are per-processor and only
// ever written by the owning node's lane — but owns its message collector
// and, once EnableTransport is called on it, its own transport instance (a
// node's transport touches only the sender state of its outgoing links and
// the receiver state of its incoming ones, and acks always land back on the
// sending node's view). Fold merges a view's counters into the root after
// the run.
func (f *Fabric) View(eng *sim.Engine) *Fabric {
	return &Fabric{Eng: eng, Net: f.Net, Time: f.Time, Coll: &metrics.Collector{}, RMR: f.RMR}
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

// Send counts and transmits a message. The message's Words() determine its
// network occupancy. With the reliable transport enabled, the message is
// tracked for acknowledgment and retransmission before injection.
func (f *Fabric) Send(m *msg.Msg) {
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
	f.Net.Send(m.Src, m.Dst, m.Words(), m)
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
// not the fault plane is active.
func (f *Fabric) Attach(node int, h func(*msg.Msg)) {
	f.Net.Attach(node, func(p any) {
		if f.xp != nil {
			f.xp.receive(node, p.(*msg.Msg), h)
			return
		}
		h(p.(*msg.Msg))
	})
}

// Station is a per-node message-processing front end: incoming messages are
// serialized through a directory-check resource (t_D each) before their
// handler runs. Both cache directories and the central directory use one,
// held by value in the controller.
type Station struct {
	f   *Fabric
	res sim.Resource
}

// NewStation returns a station on the fabric.
func NewStation(f *Fabric) Station { return Station{f: f} }

// Reset makes the station idle with no cycles counted, as NewStation
// builds it.
func (s *Station) Reset() { s.res.Reset() }

// Process schedules rcv.OnDeliver(m) after the station's directory-check
// delay, honoring queueing at the directory. It is a typed event, so a
// message's processing allocates no closure, and it draws the same time,
// sequence number and jitter key as the closure form eng.At would.
func (s *Station) Process(rcv sim.Receiver, m *msg.Msg) {
	done := s.res.Acquire(s.f.Eng.Now(), s.f.Time.TDir)
	s.f.Eng.AtDeliver(done, rcv, m)
}

// ProcessAfter is Process after the directory check plus an extra delay
// (e.g. t_m for a memory block read). The station is occupied for the whole
// duration: the directory and its memory module service one transaction at
// a time.
func (s *Station) ProcessAfter(extra sim.Time, rcv sim.Receiver, m *msg.Msg) {
	done := s.res.Acquire(s.f.Eng.Now(), s.f.Time.TDir+extra)
	s.f.Eng.AtDeliver(done, rcv, m)
}

// Busy returns the cycles the station has been occupied.
func (s *Station) Busy() sim.Time { return s.res.Busy }
