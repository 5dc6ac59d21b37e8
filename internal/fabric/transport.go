package fabric

// The reliable transport: the protocol-level recovery machinery that makes
// the machine survive the interconnect fault plane (network.Config.Faults).
//
// The coherence and lock protocols above the fabric assume the network
// delivers every message exactly once and, per ordered (src, dst) pair, in
// injection order — both properties the fault-free network provides (a
// link's messages serialize through the same port chain) and the fault
// plane deliberately breaks. Rather than teaching every directory, RUC
// subscriber-list, and CBL waiter-queue handler to tolerate loss,
// duplication, and reordering individually — a per-handler audit that would
// have to be redone for every new message kind — the fabric restores
// exactly-once, per-link FIFO delivery underneath all of them, the way a
// real machine's network interface does:
//
//   - every protocol message carries a per-link sequence number (Msg.XSeq);
//   - the receiver acknowledges each arrival with a NetAck (fire-and-forget,
//     itself subject to faults);
//   - the sender retransmits unacknowledged messages on a timeout with
//     bounded exponential backoff (RTO doubling up to RTOMax; attempts are
//     unbounded — with drop probability < 1 delivery is almost-surely
//     eventual, and the machine's horizon guards the pathological case);
//   - the receiver delivers ls == expected immediately, suppresses
//     ls < expected as an already-delivered duplicate (re-acking it, which
//     repairs a lost ack), and holds back ls > expected until the gap
//     fills, restoring FIFO.
//
// Duplicate suppression is what keeps duplicated directory, RUC-propagation
// and CBL-grant messages from corrupting subscriber and waiter lists: a
// second UpdateProp or LockGrant never reaches the controller at all.
//
// Records: the sender keeps a by-value copy of each unacknowledged message
// in its slot, with a data buffer the slot keeps, since the record it sent
// goes back to a free list once delivered or dropped. A retransmission
// sends a fresh record copied from the slot. The receiver takes back each
// ack and each suppressed duplicate itself, and a held-back record once it
// has been delivered.
//
// Tables: each link's state is addressed by sequence number, with no
// hashing. The sender's window holds the slots of the link's messages
// from the oldest unacknowledged one on, so an ack finds its slot by
// subtraction; the receiver's holds the early arrivals from the first one
// after the gap. A fabric's transport keeps the rows of the links its own
// nodes send and receive on, and Reset keeps every table's memory for the
// next run.
//
// Determinism: timers are simulation events, sequence numbers are assigned
// in injection order, and the fault plane is seeded — so a (config, fault
// seed) pair names one exact execution, reproducible bit-for-bit.

import (
	"ssmp/internal/metrics"
	"ssmp/internal/msg"
	"ssmp/internal/sim"
)

// TransportConfig parameterizes the reliable transport.
type TransportConfig struct {
	// RTO is the initial retransmit timeout in cycles. It should exceed a
	// loaded round trip (network transit + directory queueing + the ack's
	// return transit); too small merely costs spurious retransmissions,
	// which duplicate suppression absorbs.
	RTO sim.Time
	// RTOMax caps the exponential backoff.
	RTOMax sim.Time
}

// DefaultTransportConfig returns the retry parameters used when the fault
// plane is enabled: an RTO of 64 cycles (several uncontended round trips at
// Table 4 timings) backing off to 1024.
func DefaultTransportConfig() TransportConfig {
	return TransportConfig{RTO: 64, RTOMax: 1024}
}

func (c TransportConfig) withDefaults() TransportConfig {
	d := DefaultTransportConfig()
	if c.RTO == 0 {
		c.RTO = d.RTO
	}
	if c.RTOMax < c.RTO {
		c.RTOMax = max(c.RTO, d.RTOMax)
	}
	return c
}

// outstanding is one slot of the transport's table of unacknowledged
// messages: a copy of the message, its current retransmit timeout and the
// handle of its armed timer. The slot's index is the argument of that
// timer's typed event (transport.OnStep), so arming a timer allocates
// nothing. A freed slot joins the free list threaded through the table, as
// in completions, and keeps its copy's data buffer for its next message.
type outstanding struct {
	m     msg.Msg
	rto   sim.Time
	timer sim.Handle
	next  int32 // while the slot is free: 1 + the next free slot, or 0
}

// txLink is the sender's state for one outgoing link. Every sequence up to
// acked has been acknowledged; win[k] is 1 + the slot of sequence
// acked+1+k, or 0 once that one is acked too, so the link's last sequence
// issued is acked+len(win). The window drops its acked front as acks
// arrive.
type txLink struct {
	acked uint64
	win   []int32
}

// rxLink is the receiver's state for one incoming link: the last sequence
// delivered, and the early arrivals held until the gap before them fills,
// hold[k] holding sequence expect+2+k or nil.
type rxLink struct {
	expect uint64
	hold   []*msg.Msg
}

// transport is the per-fabric reliable-delivery state. Per-link state lives
// in rows of n links, one row per node the fabric serves: the sender's by
// source node (tx, indexed by destination within a row) and the
// receiver's by destination node (rx, indexed by source). A root fabric
// on one lane serves every node; a lane view serves its own node, so its
// tables hold one row each; a root whose nodes all run on views serves
// none and keeps only the counters its views are folded into.
// Unacknowledged messages live in a slot table, so tracking a message
// allocates nothing once the tables have grown to the most messages ever
// in flight at once.
type transport struct {
	f   *Fabric
	cfg TransportConfig
	n   int
	lo  int // the first node served: a node's row is node-lo

	tx    []txLink // [(src-lo)*n + dst]
	rx    []rxLink // [(dst-lo)*n + src]
	slots []outstanding
	free  int32 // 1 + index of the first free slot; 0 when none is free

	retries       uint64
	dupSuppressed uint64
	reordered     uint64
	acksSent      uint64
}

// EnableTransport activates the reliable transport on this fabric, as a
// new one starts: no message tracked and every counter zero. It must be
// called before any Send. A view does not inherit its root's transport:
// the machine enables the root's and each view's itself. A zero config
// field takes its default. The transport's tables are built on the first
// call and kept from then on; Reset turns the transport off and empties
// them.
func (f *Fabric) EnableTransport(cfg TransportConfig) {
	if f.kept == nil {
		n := f.Net.Nodes()
		t := &transport{f: f, n: n}
		switch {
		case f.node >= 0:
			t.lo, t.tx, t.rx = f.node, make([]txLink, n), make([]rxLink, n)
		case len(f.views) == 0:
			t.tx, t.rx = make([]txLink, n*n), make([]rxLink, n*n)
		}
		f.kept = t
	}
	f.xp = f.kept
	f.xp.cfg = cfg.withDefaults()
}

// reset empties the transport, keeping its memory: no link has a sequence
// issued, delivered, unacknowledged or held, no slot is in use and every
// counter is zero. A held record is let go of; like a record in flight when
// the run stopped, it is not returned to a free list.
func (t *transport) reset() {
	for i := range t.tx {
		l := &t.tx[i]
		l.acked, l.win = 0, l.win[:0]
	}
	for i := range t.rx {
		l := &t.rx[i]
		clear(l.hold)
		l.expect, l.hold = 0, l.hold[:0]
	}
	t.slots, t.free = t.slots[:0], 0
	t.retries, t.dupSuppressed, t.reordered, t.acksSent = 0, 0, 0, 0
}

// TransportStats reports the transport's recovery counters (zero when the
// transport is disabled).
func (f *Fabric) TransportStats() (retries, dupSuppressed, reordered, acksSent uint64) {
	if f.xp == nil {
		return 0, 0, 0, 0
	}
	return f.xp.retries, f.xp.dupSuppressed, f.xp.reordered, f.xp.acksSent
}

// FaultCounters combines the network's injection counters with the
// transport's recovery counters into the shared metrics form.
func (f *Fabric) FaultCounters() metrics.FaultCounters {
	fs := f.Net.Stats().Faults
	c := metrics.FaultCounters{
		Dropped:     fs.Dropped,
		Duplicated:  fs.Duplicated,
		Delayed:     fs.Delayed,
		DelayCycles: uint64(fs.DelayCycles),
	}
	c.Retries, c.DupSuppressed, c.Reordered, c.AcksSent = f.TransportStats()
	return c
}

// track assigns m its per-link sequence number, keeps a copy of it for
// retransmission and arms the retransmit timer. Node-local bypass messages
// are exempt: they cannot be faulted.
func (t *transport) track(m *msg.Msg) {
	if t.free == 0 {
		// A slot past the table's length keeps its data buffer from the
		// run before a Reset.
		if k := len(t.slots); k < cap(t.slots) {
			t.slots = t.slots[:k+1]
			t.slots[k].next = 0
		} else {
			t.slots = append(t.slots, outstanding{})
		}
		t.free = int32(len(t.slots))
	}
	i := t.free - 1
	t.free = t.slots[i].next
	l := &t.tx[(m.Src-t.lo)*t.n+m.Dst]
	l.win = append(l.win, i+1)
	m.XSeq = l.acked + uint64(len(l.win))
	o := &t.slots[i]
	buf := o.m.Data
	*o = outstanding{m: *m, rto: t.cfg.RTO}
	o.m.Data = append(buf[:0], m.Data...)
	o.timer = t.f.Eng.AfterStep(t.cfg.RTO, t, uint64(i))
}

// OnStep implements sim.Stepper as slot i's retransmit timer, which fires
// when the slot's message has not been acked within its RTO: a fresh copy
// is reinjected and the timer re-armed with doubled (capped) timeout. A
// spurious retransmission — the original was merely slow, not lost — is
// harmless: the receiver suppresses it as a duplicate. An ack cancels the
// timer before it frees the slot, so the timer never fires for a freed one.
func (t *transport) OnStep(i uint64) {
	o := &t.slots[i]
	t.retries++
	// The record first sent may be back on a free list and carrying
	// another message: retransmit a fresh record made from the slot.
	t.f.sendRaw(t.f.take(&o.m))
	if o.rto < t.cfg.RTOMax {
		o.rto = min(o.rto*2, t.cfg.RTOMax)
	}
	o.timer = t.f.Eng.AfterStep(o.rto, t, i)
}

// sendAck acknowledges sequence ls on link src->node. Acks are untracked
// and themselves subject to faults; a lost ack is repaired when the
// retransmitted original is suppressed and re-acked.
func (t *transport) sendAck(node, src int, ls uint64) {
	t.acksSent++
	t.f.sendRaw(t.f.take(&msg.Msg{Kind: msg.NetAck, Src: node, Dst: src, XSeq: ls}))
}

// ack retires the message a NetAck names, cancelling its retransmit timer
// and freeing its slot. Acks for already-retired sequences (duplicated or
// stale acks) are ignored.
func (t *transport) ack(a *msg.Msg) {
	l := &t.tx[(a.Dst-t.lo)*t.n+a.Src]
	k := a.XSeq - l.acked - 1
	if a.XSeq <= l.acked || k >= uint64(len(l.win)) || l.win[k] == 0 {
		return
	}
	i := l.win[k] - 1
	l.win[k] = 0
	front := 0
	for front < len(l.win) && l.win[front] == 0 {
		front++
	}
	if front > 0 {
		l.acked += uint64(front)
		l.win = l.win[:copy(l.win, l.win[front:])]
	}
	o := &t.slots[i]
	o.timer.Cancel()
	*o = outstanding{m: msg.Msg{Data: o.m.Data[:0]}, next: t.free}
	t.free = i + 1
}

// receive is the receiver-side transport: ack processing, duplicate
// suppression, and per-link FIFO reassembly. h is the node's protocol
// dispatch. Every record that reaches receive goes back to the free list
// here: an ack or a suppressed duplicate at once, a delivered message once
// h returns, a held one once it is delivered.
func (t *transport) receive(node int, m *msg.Msg, h func(*msg.Msg)) {
	if m.Kind == msg.NetAck {
		t.ack(m)
		t.f.free(m)
		return
	}
	if m.XSeq == 0 {
		// Node-local bypass messages are untracked and unfaultable.
		t.deliver(h, m)
		return
	}
	l := &t.rx[(node-t.lo)*t.n+m.Src]
	ls := m.XSeq
	t.sendAck(node, m.Src, ls)
	switch {
	case ls <= l.expect:
		// Already delivered (a fault-plane duplicate, or a
		// retransmission whose original got through). The re-ack above
		// stops the sender's timer if the first ack was lost.
		t.dupSuppressed++
		t.f.free(m)
	case ls == l.expect+1:
		l.expect = ls
		t.deliver(h, m)
		// Drain any held successors the gap was blocking: hold[k] is
		// now sequence expect+1 while k successors have been delivered.
		k := 0
		for k < len(l.hold) && l.hold[k] != nil {
			l.expect++
			t.deliver(h, l.hold[k])
			k++
		}
		// hold[k], if any, is the new gap: the window restarts behind it.
		rest := copy(l.hold, l.hold[min(k+1, len(l.hold)):])
		clear(l.hold[rest:])
		l.hold = l.hold[:rest]
	default:
		// Early: a predecessor is still missing (dropped or delayed).
		// Hold this message until the sender's retransmission fills the
		// gap, preserving the link's FIFO order.
		k := int(ls - l.expect - 2)
		for len(l.hold) <= k {
			l.hold = append(l.hold, nil)
		}
		if l.hold[k] != nil {
			t.dupSuppressed++
			t.f.free(m)
			return
		}
		l.hold[k] = m
		t.reordered++
	}
}

// deliver hands m to the node's dispatch h, then lets go of it.
func (t *transport) deliver(h func(*msg.Msg), m *msg.Msg) {
	h(m)
	t.f.free(m)
}
