// Package sim provides the discrete-event simulation kernel underlying the
// multiprocessor model.
//
// The kernel is deliberately minimal and deterministic: a single logical
// clock measured in machine cycles, an event queue that pops in the order
// of a unique key (time, jitter, lane, insertion sequence), and no
// goroutines. All simulated components (processors, caches, directories,
// network switches) are passive state machines that interact exclusively
// by scheduling events. Two runs with the same seed and configuration
// produce bit-identical results, which the test suite verifies.
//
// The queue is a 64-slot timing wheel (Varghese & Lauck, SOSP 1987; a
// calendar queue in Brown's terms, CACM 1988) in front of a binary heap. An
// event due less than 64 cycles after now goes into wheel slot at%64, a
// list kept sorted by (jitter, lane, sequence); an event due later goes
// onto the far heap. Every wheel event lies in [now, now+64), so a slot
// holds events of one time only, and the next wheel event heads the first
// occupied slot at or after now: one rotate and one trailing-zero count
// over a one-word occupancy set. The next event overall is that one or the
// far heap's top, whichever the key puts first — a far event whose time
// has come inside the wheel's span competes on the same key — so the pop
// order is the key order whatever the queue's internal arrangement. Model
// events are near: the serial Figure 4–7 sweep (7.24 M events) schedules
// 70.6% of its events 1 cycle ahead and 98.7% less than 64 cycles ahead,
// with 33 pending on average, so nearly every event is inserted and popped
// in O(1) and never touches the heap. At that shape (BenchmarkEngineQueue,
// jitter off, on a 2-CPU Intel Xeon with go1.24.0) 1,000 events take
// 56.5 µs against the binary heap's 108.5.
//
// The queue is built for throughput: event records live in a pooled arena
// and are recycled through a free list, the wheel lists and the heap hold
// arena indices (no per-event allocation, no interface boxing), and the
// two event shapes that dominate a simulation — resuming a processor and
// delivering a network message — are typed (Stepper, Receiver) so the hot
// path allocates no closures. Cancelled entries are dropped lazily when
// they reach the front; on the far heap an eager sweep runs once they
// outnumber live ones, while a cancelled wheel entry drains within 64
// cycles.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Time is the simulation clock, measured in processor cycles.
type Time uint64

// Infinity is a sentinel Time greater than any reachable simulation instant.
const Infinity Time = math.MaxUint64

// Event is a scheduled callback. Events carry no payload of their own;
// closures capture whatever state they need. For the hot event shapes,
// prefer the typed AtStep/AtDeliver, which allocate nothing.
type Event func()

// Stepper is the typed form of the "resume processor" event shape: the
// kernel calls OnStep with the argument given at scheduling time instead of
// invoking a closure.
type Stepper interface {
	OnStep(arg uint64)
}

// Receiver is the typed form of the "deliver message" event shape: the
// kernel calls OnDeliver with the payload given at scheduling time.
type Receiver interface {
	OnDeliver(payload any)
}

// eventKind discriminates the union held in a record.
type eventKind uint8

const (
	evFunc eventKind = iota
	evStep
	evDeliver
)

// wheelSlots is the timing wheel's span in cycles: an event due less than
// wheelSlots cycles after now goes on the wheel, a later one on the far
// heap. 64 slots make the occupancy set one machine word.
const wheelSlots = 64

// record is one pooled event. Records live in the engine's arena and are
// recycled through a free list; gen invalidates Handles to recycled slots.
// seq breaks (at) ties so that events scheduled for the same cycle fire in
// insertion order, keeping the simulation deterministic. lane is the
// scheduling lane of a Parallel run (see pdes.go): a standalone engine
// leaves it 0, so the legacy order (time, jitter, sequence) is unchanged.
type record struct {
	at      Time
	seq     uint64
	jit     uint64
	fn      Event
	step    Stepper
	recv    Receiver
	payload any
	arg     uint64
	lane    int32
	gen     uint32
	next    int32 // the next record in this one's wheel slot; -1 ends the list
	kind    eventKind
	dead    bool
	far     bool // queued on the far heap, not on the wheel
}

// Handle identifies a scheduled event so it can be cancelled.
type Handle struct {
	e   *Engine
	id  int32
	gen uint32
}

// Cancel removes the event from the schedule. Cancelling an already-fired or
// already-cancelled event is a no-op. Cancel reports whether the event was
// still pending. The entry is dropped lazily; once dead entries outnumber
// live ones on the far heap it is swept eagerly.
func (h Handle) Cancel() bool {
	if h.e == nil {
		return false
	}
	r := &h.e.pool[h.id]
	if r.gen != h.gen || r.dead {
		return false
	}
	r.dead = true
	r.fn, r.step, r.recv, r.payload = nil, nil, nil, nil
	if r.far {
		h.e.dead++
		h.e.maybeSweep()
	}
	return true
}

// Pending reports whether the event has neither fired nor been cancelled.
func (h Handle) Pending() bool {
	if h.e == nil {
		return false
	}
	r := &h.e.pool[h.id]
	return r.gen == h.gen && !r.dead
}

// Engine is the event loop. The zero value is not usable; call NewEngine.
type Engine struct {
	now  Time
	seq  uint64
	pool []record // event arena; the queue and free hold indices into it

	// The event queue. Wheel slot s lists the events due at the one time in
	// [now, now+wheelSlots) congruent to s modulo wheelSlots, in
	// (jit, lane, seq) order through record.next, from head[s] to tail[s];
	// bit s of occ is set while the list is non-empty. far is a binary
	// min-heap, ordered by less, of the events that were wheelSlots or more
	// cycles ahead when scheduled.
	occ  uint64
	head [wheelSlots]int32
	tail [wheelSlots]int32
	far  []int32
	free []int32 // recycled arena slots
	dead int     // cancelled entries still in far

	fired     uint64
	stopped   bool
	limit     Time // horizon; Infinity when unset
	interrupt func() error

	jitterOn bool
	jrng     uint64 // splitmix64 state; advanced once per scheduled event

	// lane is this engine's lane id when it belongs to a Parallel run
	// (pdes.go); every locally scheduled record is stamped with it. A
	// standalone engine keeps lane 0, which sorts like the legacy
	// (time, jitter, sequence) key.
	lane int32
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.Reset()
	return e
}

// Reset returns the engine to the state NewEngine builds — clock at zero,
// nothing scheduled, no horizon, interrupt or jitter — while keeping the
// memory of its arena, far heap and free list. The arena restarts at length
// zero, so events are assigned slots as on a fresh engine. A lane keeps its
// lane id. Events a stopped run left queued are dropped with their
// callbacks and payloads.
func (e *Engine) Reset() {
	if len(e.pool) > 0 { // else no event was queued since the last reset
		clear(e.pool)
		clear(e.head[:])
		clear(e.tail[:])
	}
	e.pool, e.far, e.free = e.pool[:0], e.far[:0], e.free[:0]
	e.now, e.seq, e.occ, e.dead, e.fired = 0, 0, 0, 0, 0
	e.stopped, e.limit, e.interrupt = false, Infinity, nil
	e.jitterOn, e.jrng = false, 0
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still scheduled (including cancelled
// entries not yet dropped).
func (e *Engine) Pending() int {
	n := len(e.far)
	for occ := e.occ; occ != 0; occ &= occ - 1 {
		for id := e.head[bits.TrailingZeros64(occ)]; id >= 0; id = e.pool[id].next {
			n++
		}
	}
	return n
}

// SetHorizon establishes a hard time limit. The horizon is inclusive:
// events with timestamps <= t still fire, and Run returns ErrHorizon only
// when the next live *event* lies strictly beyond it. A horizon of Infinity
// (the default) disables the limit.
func (e *Engine) SetHorizon(t Time) { e.limit = t }

// ErrHorizon is returned when the simulation horizon is exceeded, which
// almost always indicates livelock (for example a lock that is never
// released).
var ErrHorizon = errors.New("sim: horizon exceeded")

// interruptEvery is how many fired events pass between interrupt polls.
// Polling per event would put a function call (and, for context-backed
// interrupts, a channel select) on the hot path; every 1024 events keeps
// the overhead unmeasurable while still bounding cancellation latency to
// well under a millisecond of wall time.
const interruptEvery = 1024

// SetInterrupt installs a poll function consulted periodically during Run;
// a non-nil return stops the loop, which returns that error.
// The poll is deliberately coarse (every 1024 events) so it stays off the
// hot path. Pass nil to remove the interrupt. Interrupts do not affect
// determinism: they can only end a run early, never reorder events.
func (e *Engine) SetInterrupt(fn func() error) { e.interrupt = fn }

// SetJitter enables seeded schedule jitter: every event scheduled from now
// on gets a pseudo-random tie-break key that orders it among events with the
// same timestamp. Time ordering is untouched — jitter only permutes
// same-cycle events, exploring schedules the (time, insertion order) default
// never reaches. A given seed yields one fixed, reproducible permutation;
// seed 0 disables jitter, restoring the exact default order, so golden
// digests recorded without jitter stay bit-identical.
//
// Call SetJitter before scheduling: events already queued keep a zero jitter
// key and sort ahead of any jittered event at the same cycle.
func (e *Engine) SetJitter(seed uint64) {
	e.jitterOn = seed != 0
	e.jrng = seed
}

// nextJit advances the jitter PRNG (splitmix64) one step.
func (e *Engine) nextJit() uint64 {
	e.jrng += 0x9e3779b97f4a7c15
	z := e.jrng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// less orders queue entries by (time, jitter, lane, sequence). With jitter
// off every jit is zero, and in a standalone engine every lane is zero, so
// the order degenerates to the legacy (time, seq). Under a Parallel run the
// (lane, seq) pair is the scheduling lane and that lane's local sequence
// counter, which makes the key a total order that no interleaving of lane
// execution can perturb. seq keeps the key unique within a lane, so the pop
// order is independent of the queue's internal arrangement.
func (e *Engine) less(a, b int32) bool {
	ra, rb := &e.pool[a], &e.pool[b]
	if ra.at != rb.at {
		return ra.at < rb.at
	}
	if ra.jit != rb.jit {
		return ra.jit < rb.jit
	}
	if ra.lane != rb.lane {
		return ra.lane < rb.lane
	}
	return ra.seq < rb.seq
}

func (e *Engine) siftUp(i int) {
	h := e.far
	id := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(id, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = id
}

func (e *Engine) siftDown(i int) {
	h := e.far
	n := len(h)
	id := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && e.less(h[r], h[c]) {
			c = r
		}
		if !e.less(h[c], id) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = id
}

// popFar removes the far heap's top.
func (e *Engine) popFar() {
	h := e.far
	n := len(h) - 1
	h[0] = h[n]
	e.far = h[:n]
	if n > 0 {
		e.siftDown(0)
	}
}

// peek returns the queue's first entry, live or cancelled, and the wheel
// slot that holds it: the head of the first occupied slot at or after now,
// or the far heap's top if the key puts it first, with slot -1. id is -1
// when the queue is empty.
func (e *Engine) peek() (id int32, slot int) {
	id, slot = -1, -1
	if e.occ != 0 {
		n := int(e.now % wheelSlots)
		slot = (n + bits.TrailingZeros64(bits.RotateLeft64(e.occ, -n))) % wheelSlots
		id = e.head[slot]
	}
	if len(e.far) > 0 && (id < 0 || e.less(e.far[0], id)) {
		return e.far[0], -1
	}
	return id, slot
}

// unlink takes peek's entry, record r, off the queue.
func (e *Engine) unlink(r *record, slot int) {
	if slot < 0 {
		e.popFar()
	} else if e.head[slot] = r.next; r.next < 0 {
		e.occ &^= 1 << slot
	}
}

// drop takes peek's entry, a cancelled one, off the queue and recycles it.
func (e *Engine) drop(id int32, slot int) {
	e.unlink(&e.pool[id], slot)
	if slot < 0 {
		e.dead--
	}
	e.release(id)
}

// drawKey draws the next ordering key from this engine's own schedule:
// a jitter draw (0 with jitter off), then a sequence number.
func (e *Engine) drawKey() (jit, seq uint64) {
	if e.jitterOn {
		jit = e.nextJit()
	}
	seq = e.seq
	e.seq++
	return jit, seq
}

// schedule inserts an event under the next key this engine draws.
func (e *Engine) schedule(t Time, kind eventKind) (int32, *record) {
	jit, seq := e.drawKey()
	return e.scheduleKeyed(t, jit, e.lane, seq, kind)
}

// scheduleKeyed allocates a record (recycling a free slot when one exists),
// stamps it with the ordering key (at, jit, lane, seq), and queues it: on
// the wheel when it is due less than wheelSlots cycles from now, else on the
// far heap. A Parallel run's merge calls it directly with the key the
// source lane drew at Post time. The returned pointer is valid until the
// next arena append; callers fill the payload immediately.
func (e *Engine) scheduleKeyed(t Time, jit uint64, lane int32, seq uint64, kind eventKind) (int32, *record) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", t, e.now))
	}
	var id int32
	if n := len(e.free); n > 0 {
		id = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.pool = append(e.pool, record{})
		id = int32(len(e.pool) - 1)
	}
	r := &e.pool[id]
	r.at, r.jit, r.lane, r.seq, r.kind, r.dead = t, jit, lane, seq, kind, false
	r.far = t-e.now >= wheelSlots
	if r.far {
		e.far = append(e.far, id)
		e.siftUp(len(e.far) - 1)
		return id, r
	}
	s := t % wheelSlots
	if bit := uint64(1) << s; e.occ&bit == 0 {
		e.occ |= bit
		e.head[s], e.tail[s], r.next = id, id, -1
	} else {
		e.link(id, r, s)
	}
	return id, r
}

// link inserts record id, r, into occupied wheel slot s in key order. Every
// entry of a slot is due at the same time, so the key reduces to
// (jit, lane, seq): with jitter off, an engine's own events come in
// sequence order and append at the tail unless a post from a higher lane
// is due with them; jittered events and cross-lane posts walk the list to
// their place.
func (e *Engine) link(id int32, r *record, s Time) {
	if last := e.tail[s]; e.less(last, id) {
		e.pool[last].next, r.next, e.tail[s] = id, -1, id
		return
	}
	prev, cur := int32(-1), e.head[s]
	for e.less(cur, id) {
		prev, cur = cur, e.pool[cur].next
	}
	r.next = cur
	if prev < 0 {
		e.head[s] = id
	} else {
		e.pool[prev].next = id
	}
}

// release recycles a record's arena slot and invalidates its handles.
func (e *Engine) release(id int32) {
	r := &e.pool[id]
	r.gen++
	r.fn, r.step, r.recv, r.payload = nil, nil, nil, nil
	e.free = append(e.free, id)
}

// maybeSweep eagerly drops cancelled far-heap entries once they outnumber
// live ones, so a cancel-heavy workload cannot grow the heap without bound.
// The sweep filters the index slice and re-heapifies; keys are unique, so
// the pop order is unchanged. The wheel needs no sweep: its cancelled
// entries reach the front, and are dropped, within wheelSlots cycles.
func (e *Engine) maybeSweep() {
	if e.dead <= len(e.far)/2 || e.dead < 64 {
		return
	}
	live := e.far[:0]
	for _, id := range e.far {
		if e.pool[id].dead {
			e.release(id)
			continue
		}
		live = append(live, id)
	}
	e.far = live
	for i := len(live)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
	e.dead = 0
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it is always a model bug, never a recoverable condition.
func (e *Engine) At(t Time, fn Event) Handle {
	if fn == nil {
		panic("sim: nil event")
	}
	id, r := e.schedule(t, evFunc)
	r.fn = fn
	return Handle{e, id, r.gen}
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn Event) Handle {
	return e.At(e.now+d, fn)
}

// AtStep schedules s.OnStep(arg) at absolute time t without allocating: the
// typed form of the resume-processor event shape.
func (e *Engine) AtStep(t Time, s Stepper, arg uint64) Handle {
	if s == nil {
		panic("sim: nil stepper")
	}
	id, r := e.schedule(t, evStep)
	r.step, r.arg = s, arg
	return Handle{e, id, r.gen}
}

// AfterStep schedules s.OnStep(arg) d cycles from now.
func (e *Engine) AfterStep(d Time, s Stepper, arg uint64) Handle {
	return e.AtStep(e.now+d, s, arg)
}

// AtDeliver schedules rcv.OnDeliver(payload) at absolute time t without
// allocating a closure: the typed form of the message-delivery event shape.
func (e *Engine) AtDeliver(t Time, rcv Receiver, payload any) Handle {
	if rcv == nil {
		panic("sim: nil receiver")
	}
	id, r := e.schedule(t, evDeliver)
	r.recv, r.payload = rcv, payload
	return Handle{e, id, r.gen}
}

// Stop makes Run return after the current event completes.
// Intended for use from inside event callbacks (for example when a workload
// detects completion).
func (e *Engine) Stop() { e.stopped = true }

// fire executes one live event. The record is released before the callback
// runs, so events scheduled by the callback can recycle its slot.
func (e *Engine) fire(id int32) {
	r := &e.pool[id]
	kind := r.kind
	fn, step, recv := r.fn, r.step, r.recv
	payload, arg := r.payload, r.arg
	e.release(id)
	e.fired++
	switch kind {
	case evFunc:
		fn()
	case evStep:
		step.OnStep(arg)
	default:
		recv.OnDeliver(payload)
	}
}

// Run executes events until the queue drains, Stop is called, the horizon
// is exceeded, or an installed interrupt reports an error. It returns nil
// on a drained queue or explicit Stop. Infinity is never reached: an event
// scheduled there stays queued.
func (e *Engine) Run() error {
	e.stopped = false
	return e.run(Infinity)
}

// run is the event loop. It fires live events in key order until the next
// one lies at or beyond end, the queue drains, Stop is called, the horizon
// is exceeded, or the interrupt reports an error. Run and a one-lane
// Parallel run pass Infinity; a lane of a many-lane run passes its window
// end and leaves the horizon and the interrupt to the coordinator.
func (e *Engine) run(end Time) error {
	for (e.occ != 0 || len(e.far) > 0) && !e.stopped {
		if e.interrupt != nil && e.fired%interruptEvery == 0 {
			if err := e.interrupt(); err != nil {
				return err
			}
		}
		id, slot := e.peek()
		r := &e.pool[id]
		if r.dead {
			e.drop(id, slot)
			continue
		}
		at := r.at
		if at >= end {
			return nil
		}
		// unlink, written out: it does not inline, and this is the hot path.
		if slot < 0 {
			e.popFar()
		} else if e.head[slot] = r.next; r.next < 0 {
			e.occ &^= 1 << slot
		}
		e.now = at
		if at > e.limit {
			e.release(id)
			return ErrHorizon
		}
		e.fire(id)
	}
	return nil
}
