// Conservative time-windowed parallel discrete-event simulation (PDES).
//
// A Parallel run partitions the event population into lanes — one Engine per
// machine node — and repeats a barrier-synchronized window loop:
//
//  1. GVT is the minimum next-event time across lanes. The window is
//     [GVT, GVT+lookahead), where lookahead is the minimum latency of any
//     cross-lane interaction (for this machine: the minimum uncontended
//     link latency, see network.MinCrossLatency).
//  2. Every lane independently fires all of its events with t < window end.
//     Effects on other lanes may not be applied directly; they are buffered
//     as posts in a per-source-lane FIFO outbox. Because any cross-lane
//     effect is at least one link latency away, every post lands at or
//     beyond the window end — the destination lane cannot have passed it.
//  3. At the barrier, the outboxes are appended to the destination queues in
//     source-lane order, and every queue pops in the order of the key
//     (time, jitter, source lane, source sequence). The key is drawn by the
//     source lane at Post time, so it is a pure function of that lane's own
//     schedule — neither the order in which lanes run nor the merge order
//     can change it.
//
// Models with globally-ordered shared state that lanes must not touch during
// a window — contended network ports, for this machine — hook the barrier
// with SetArbiter: lanes record their intent during the window (drawing the
// same injection key via DrawKey), and the arbiter replays the recorded work
// in global key order on the coordinator, posting the resulting deliveries
// with PostKeyed before the merge. See network.NewParallel.
//
// The result is a simulation whose outcome is bit-identical to any other
// run of the same configuration: the partition (one lane per node) and
// every ordering key are fixed by the configuration alone. Run executes
// each window's active lanes one after another, in lane order, on the
// calling goroutine; since every ordering decision is keyed by lane-local
// state, the order in which lanes run within a window is immaterial to
// the outcome, and running them on one thread makes it fixed, so anything
// lanes report to a shared observer arrives window by window and lane by
// lane. This is the conservative (Chandy-Misra-style windowed) flavor of
// PDES — lanes never execute past the horizon of what other lanes could
// still affect, so there is no rollback machinery and no state saving, at
// the cost of requiring a positive lookahead.
//
// A serial run is the one-lane case. With one lane the key (time, jitter,
// lane, sequence) reduces to the standalone engine's (time, jitter,
// sequence), there is no other lane to wait for, and Run runs the lane's
// own event loop to completion with no windows — the same events in the
// same order as Engine.Run.
package sim

import "fmt"

// post is one buffered cross-lane effect: a message delivery drawn from the
// source lane's schedule, carrying the full ordering key assigned at Post
// time.
type post struct {
	at      Time
	jit     uint64
	seq     uint64
	src     int32
	dst     int32
	rcv     Receiver
	payload any
}

// Parallel coordinates a set of lane engines through the window loop. The
// zero value is not usable; call NewParallel.
type Parallel struct {
	lane0 Engine     // lane 0, held inline
	solo  [1]*Engine // backing array of lanes on a one-lane run
	lanes []*Engine
	out   [][]post // outboxes, indexed by source lane
	la    Time     // lookahead (window width); at least 1
	limit Time     // horizon; Infinity when unset
	clock Time     // max event time fired so far (GVT on ErrHorizon)
	wend  Time     // current window end (exclusive), read by lanes in Post
	inter func() error
	arb   func() // window-barrier arbitration hook (SetArbiter)
	nt    []Time // cached per-lane next-event time (see Run)
}

// NewParallel returns a coordinator over n lane engines with the clock at
// zero and a lookahead of 1 cycle (the degenerate lockstep window; callers
// should install the real model lookahead with SetLookahead). A one-lane
// coordinator is a single allocation, like NewEngine: lane 0 lives inside
// it, and it builds no window state.
func NewParallel(n int) *Parallel {
	if n < 1 {
		panic("sim: parallel run needs at least one lane")
	}
	p := &Parallel{la: 1, limit: Infinity}
	if n == 1 {
		p.solo[0] = &p.lane0
		p.lanes = p.solo[:]
	} else {
		p.lanes = make([]*Engine, n)
		p.out = make([][]post, n)
		p.nt = make([]Time, n)
		p.lanes[0] = &p.lane0
		for i := 1; i < n; i++ {
			p.lanes[i] = &Engine{lane: int32(i)}
		}
	}
	p.Reset()
	return p
}

// Reset returns the coordinator to the state NewParallel builds, keeping
// its lookahead, horizon and arbiter: every lane is reset (Engine.Reset),
// the clock is at zero, the outboxes are empty and no interrupt is
// installed. Jitter is off until SetJitter. The lanes, outboxes and
// per-lane tables keep their memory.
func (p *Parallel) Reset() {
	for _, e := range p.lanes {
		e.Reset()
	}
	p.clock, p.wend, p.inter = 0, 0, nil
	if len(p.lanes) == 1 {
		return // one lane runs no windows, so it has no window state
	}
	for i, out := range p.out {
		clear(out)
		p.out[i] = out[:0]
	}
	clear(p.nt)
}

// Lanes returns the number of lanes.
func (p *Parallel) Lanes() int { return len(p.lanes) }

// Lane returns lane i's engine. Components owned by node i schedule their
// local events through it exactly as they would through a serial engine.
func (p *Parallel) Lane(i int) *Engine { return p.lanes[i] }

// SetLookahead installs the window width: the minimum simulated latency of
// any cross-lane interaction, in cycles. It must be at least 1 — a zero
// lookahead means cross-lane effects can land inside the current window,
// which the conservative window loop cannot simulate (use the serial
// engine for such models).
func (p *Parallel) SetLookahead(d Time) {
	if d < 1 {
		panic("sim: lookahead must be >= 1")
	}
	p.la = d
}

// Lookahead returns the installed window width.
func (p *Parallel) Lookahead() Time { return p.la }

// SetHorizon establishes a hard time limit with the same inclusive
// semantics as Engine.SetHorizon: events at t <= horizon fire, and Run
// returns ErrHorizon when the next event anywhere lies strictly beyond it.
func (p *Parallel) SetHorizon(t Time) { p.limit = t }

// SetInterrupt installs a poll function consulted once per window during
// Run (on one lane, every 1024 events, as Engine.SetInterrupt); a non-nil
// return stops the loop, which returns that error. Interrupts only end a
// run early — they never reorder events.
func (p *Parallel) SetInterrupt(fn func() error) { p.inter = fn }

// SetJitter enables seeded schedule jitter on every lane. A one-lane run
// seeds its lane exactly as Engine.SetJitter does, so it draws the serial
// engine's stream. With more lanes, each lane derives its own splitmix64
// stream from (seed, lane), so the jitter key a lane assigns to an event
// is a pure function of that lane's schedule — the same property that
// makes the rest of the ordering independent of the order lanes run in —
// and the run explores its own (deterministic) schedule permutation per
// seed. Seed 0 disables jitter.
func (p *Parallel) SetJitter(seed uint64) {
	if len(p.lanes) == 1 {
		p.lane0.SetJitter(seed)
		return
	}
	for i, e := range p.lanes {
		if seed == 0 {
			e.SetJitter(0)
			continue
		}
		s := splitmix(seed ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
		if s == 0 {
			s = 1
		}
		e.jitterOn = true
		e.jrng = s
	}
}

// splitmix is the splitmix64 output function, used to derive per-lane
// jitter streams.
func splitmix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Now returns the maximum event time fired so far, or the GVT that tripped
// the horizon after Run returned ErrHorizon. It is only meaningful between
// windows (after Run returns, or from an interrupt poll on many lanes).
func (p *Parallel) Now() Time { return p.clock }

// Fired returns the total number of events executed across all lanes.
func (p *Parallel) Fired() uint64 {
	var n uint64
	for _, e := range p.lanes {
		n += e.fired
	}
	return n
}

// Pending returns the number of events still scheduled across all lanes.
func (p *Parallel) Pending() int {
	n := 0
	for _, e := range p.lanes {
		n += e.Pending()
	}
	return n
}

// Post buffers a cross-lane event delivery: rcv.OnDeliver(payload) on lane
// dst at absolute time at. It must be called from lane src while that lane
// is executing a window (i.e. from inside one of its events), so a
// one-lane run, which has no window and no other lane, never posts. The
// ordering key — jitter draw and sequence number — comes from the source
// lane's own schedule, making it independent of the order lanes run in.
//
// Post panics if at lies inside the current window: that is a lookahead
// violation, meaning the model has a cross-lane interaction faster than the
// installed lookahead, and the destination lane may already have executed
// past at.
func (p *Parallel) Post(src, dst int32, at Time, rcv Receiver, payload any) {
	jit, seq := p.DrawKey(src)
	p.PostKeyed(src, dst, at, jit, seq, rcv, payload)
}

// DrawKey draws a cross-lane ordering key — jitter draw and sequence
// number — from lane src's own schedule state, exactly as Post does. It
// must be called from lane src while that lane is executing a window. Use
// it when the delivery time is not yet known (it will be fixed by the
// barrier arbiter) but the injection order must be pinned at send time;
// pass the key to PostKeyed once the time is resolved.
func (p *Parallel) DrawKey(src int32) (jit, seq uint64) { return p.lanes[src].drawKey() }

// PostKeyed buffers a cross-lane delivery whose ordering key was already
// drawn with DrawKey. Unlike Post it may also be called from the barrier
// arbiter (on the coordinator, between lane execution and the merge) —
// the posts it appends flow into the same window's merge. The lookahead
// rule is unchanged: at must lie at or beyond the current window end.
func (p *Parallel) PostKeyed(src, dst int32, at Time, jit, seq uint64, rcv Receiver, payload any) {
	if rcv == nil {
		panic("sim: nil receiver")
	}
	if at < p.wend {
		panic(fmt.Sprintf("sim: cross-lane post at %d inside window ending %d (lookahead violation)", at, p.wend))
	}
	p.out[src] = append(p.out[src], post{at: at, jit: jit, seq: seq, src: src, dst: dst, rcv: rcv, payload: payload})
}

// SetArbiter installs a hook the coordinator calls once per window at the
// barrier — after every lane has finished executing the window, before
// the outbox merge. The hook runs on Run's goroutine; it is where a model
// resolves globally-ordered shared state that lanes recorded intent
// against during the window (e.g. contended switch-port occupancy),
// posting the resulting deliveries with PostKeyed so they join the same
// merge. The hook must be deterministic: it may depend only on the
// recorded intents and its own state.
func (p *Parallel) SetArbiter(fn func()) { p.arb = fn }

// Run executes the window loop on the calling goroutine until every lane's
// queue drains, any lane calls Stop, the horizon is exceeded, or the
// interrupt poll reports an error. Each window runs its active lanes one
// after another in lane order. Stop is honored at the window boundary: the
// window in which Stop was called completes (every lane fires its
// remaining in-window events) before Run returns nil. A panic on a lane
// propagates as it is raised; lanes run in lane order, so it comes from
// the lowest lane that panics in its window.
//
// One lane runs Engine.Run's loop under the coordinator's horizon and
// interrupt: Stop returns after the current event.
func (p *Parallel) Run() error {
	if len(p.lanes) == 1 {
		e := &p.lane0
		e.stopped = false
		e.limit, e.interrupt = p.limit, p.inter
		err := e.run(Infinity)
		p.clock = e.now
		return err
	}
	// nt caches every lane's next-event time between windows, so the
	// per-window GVT reduction and active-lane selection scan a flat Time
	// array instead of probing each lane's queue front through the record
	// pool (two pointer-chasing nextTime calls per lane per window — the
	// dominant coordinator cost at 512-1024 lanes). The cache is refreshed
	// where it can change: after the lane runs its window, and by merge
	// for lanes that received cross-lane posts.
	for i, e := range p.lanes {
		e.stopped = false
		p.nt[i] = e.nextTime()
	}
	for {
		if p.inter != nil {
			if err := p.inter(); err != nil {
				return err
			}
		}
		gvt := Infinity
		for _, t := range p.nt {
			if t < gvt {
				gvt = t
			}
		}
		if gvt == Infinity {
			return nil // drained (outboxes are empty between windows)
		}
		if gvt > p.limit {
			p.clock = gvt
			return ErrHorizon
		}
		wend := gvt + p.la
		if wend < gvt {
			wend = Infinity // overflow
		}
		if p.limit != Infinity && wend > p.limit+1 {
			wend = p.limit + 1 // events at exactly the horizon still fire
		}
		p.wend = wend
		for i, e := range p.lanes {
			if p.nt[i] < wend {
				e.run(wend)
				p.nt[i] = e.nextTime()
			}
		}
		if p.arb != nil {
			p.arb()
		}
		stopped := false
		for _, e := range p.lanes {
			if e.now > p.clock {
				p.clock = e.now
			}
			if e.stopped {
				stopped = true
			}
		}
		if stopped {
			return nil
		}
		p.merge()
	}
}

// merge drains every outbox into the destination queues, appending the
// outboxes in source-lane order. It needs no sort: each queue orders by the
// full key (time, jitter, source lane, source sequence), which is unique,
// so insertion order cannot affect pop order — a post due inside the
// wheel's span links into its slot's list ahead of, between or behind the
// lane's own events. Each outbox's contents and order are a function of
// its source lane's schedule and the arbiter's replay alone, so arena
// slots are assigned as deterministically as the events themselves.
func (p *Parallel) merge() {
	for src, out := range p.out {
		for i := range out {
			q := &out[i]
			e := p.lanes[q.dst]
			_, r := e.scheduleKeyed(q.at, q.jit, q.src, q.seq, evDeliver)
			r.recv, r.payload = q.rcv, q.payload
			if q.at < p.nt[q.dst] {
				p.nt[q.dst] = q.at
			}
			q.rcv, q.payload = nil, nil
		}
		p.out[src] = out[:0]
	}
}

// nextTime returns the timestamp of the earliest live event, dropping
// cancelled entries from the front of the queue, or Infinity when drained.
func (e *Engine) nextTime() Time {
	for {
		id, slot := e.peek()
		if id < 0 {
			return Infinity
		}
		if r := &e.pool[id]; !r.dead {
			return r.at
		}
		e.drop(id, slot)
	}
}
