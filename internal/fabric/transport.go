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
// goes back to a free list once delivered. A retransmission sends a fresh
// record copied from the slot. The receiver takes back each ack and each
// suppressed duplicate itself, and a held-back record once it has been
// delivered.
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

// pendKey identifies an unacknowledged message: its link and sequence.
type pendKey struct {
	link int // src*nodes + dst
	ls   uint64
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

// rxLink is the receiver's state for one incoming link.
type rxLink struct {
	expect uint64              // last sequence delivered
	hold   map[uint64]*msg.Msg // early arrivals, held until the gap fills
}

// transport is the per-fabric reliable-delivery state. Per-link state lives
// in n-wide rows: the sender's sequence counters by source node (tx[src],
// indexed by destination) and the receiver's reassembly state by
// destination node (rx[dst], indexed by source), each row built on that
// node's first send or receipt. A lane view sends from and receives at its
// own node only, so it builds one row of each. Unacknowledged messages live
// in a slot table; pending maps (link, sequence) to a slot, so tracking a
// message allocates nothing once the table has grown to the most messages
// ever in flight at once.
type transport struct {
	f   *Fabric
	cfg TransportConfig
	n   int

	tx      [][]uint64 // sender: [src][dst] last sequence issued on the link
	rx      [][]rxLink // receiver: [dst][src] the link's reassembly state
	pending map[pendKey]int32
	slots   []outstanding
	free    int32 // 1 + index of the first free slot; 0 when none is free

	retries       uint64
	dupSuppressed uint64
	reordered     uint64
	acksSent      uint64
}

// EnableTransport activates a new reliable transport on this fabric. It
// must be called before any Send. A view does not inherit its root's
// transport: the machine enables the root's and each view's itself. A zero
// config field takes its default.
func (f *Fabric) EnableTransport(cfg TransportConfig) {
	n := f.Net.Nodes()
	f.xp = &transport{
		f:       f,
		cfg:     cfg.withDefaults(),
		n:       n,
		tx:      make([][]uint64, n),
		rx:      make([][]rxLink, n),
		pending: make(map[pendKey]int32),
	}
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
	row := t.tx[m.Src]
	if row == nil {
		row = make([]uint64, t.n)
		t.tx[m.Src] = row
	}
	row[m.Dst]++
	m.XSeq = row[m.Dst]
	if t.free == 0 {
		t.slots = append(t.slots, outstanding{})
		t.free = int32(len(t.slots))
	}
	i := t.free - 1
	t.free = t.slots[i].next
	t.pending[pendKey{m.Src*t.n + m.Dst, m.XSeq}] = i
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

// ack retires the pending entry a NetAck names, cancelling its retransmit
// timer and freeing its slot. Acks for already-retired sequences
// (duplicated or stale acks) are ignored.
func (t *transport) ack(a *msg.Msg) {
	k := pendKey{a.Dst*t.n + a.Src, a.XSeq}
	i, ok := t.pending[k]
	if !ok {
		return
	}
	delete(t.pending, k)
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
	row := t.rx[node]
	if row == nil {
		row = make([]rxLink, t.n)
		t.rx[node] = row
	}
	l := &row[m.Src]
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
		// Drain any held successors the gap was blocking.
		for {
			nm, ok := l.hold[l.expect+1]
			if !ok {
				return
			}
			delete(l.hold, l.expect+1)
			l.expect++
			t.deliver(h, nm)
		}
	default:
		// Early: a predecessor is still missing (dropped or delayed).
		// Hold this message until the sender's retransmission fills the
		// gap, preserving the link's FIFO order.
		if l.hold == nil {
			l.hold = make(map[uint64]*msg.Msg)
		}
		if _, dup := l.hold[ls]; dup {
			t.dupSuppressed++
			t.f.free(m)
			return
		}
		l.hold[ls] = m
		t.reordered++
	}
}

// deliver hands m to the node's dispatch h, then lets go of it.
func (t *transport) deliver(h func(*msg.Msg), m *msg.Msg) {
	h(m)
	t.f.free(m)
}
