// Package network models the multistage Ω (omega) interconnection network of
// the paper's evaluation (§5.2): nodes connected through log2(N) stages of
// two-way (2x2) switches with infinite buffering at every switching element.
//
// Contention is modeled at switch output ports: each (stage, line) output is
// a serially-reusable resource, so two messages whose destination-tag routes
// share an output line queue behind each other. Because buffers are
// infinite, messages are only ever delayed, never dropped.
//
// Message cost follows the paper's cost taxonomy: a transaction carrying no
// data (C_R), a word transfer (C_W), an invalidation (C_I) and a block
// transfer (C_B) differ only in the number of flits they occupy on each
// output port. Size is expressed in words; control messages have size 0 and
// occupy one flit.
package network

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"ssmp/internal/sim"
)

// Config parameterizes the network.
type Config struct {
	// Nodes is the number of processor/memory nodes; it must be a power of
	// two and at least 2.
	Nodes int
	// SwitchDelay is the per-stage occupancy, in cycles, of a one-flit
	// message. A message of size w words occupies each port for
	// SwitchDelay * max(1, w) cycles.
	SwitchDelay sim.Time
	// LocalDelay is the latency of a message from a node to its own memory
	// module, which bypasses the network (the memory is distributed among
	// the nodes).
	LocalDelay sim.Time
	// Ideal disables contention: messages take the uncontended pipeline
	// latency regardless of load. Used for ablation studies.
	Ideal bool
	// DanceHall places all memory on the far side of the network (the
	// organization the paper's Table 2 analysis assumes): node-local
	// messages traverse the network like any other instead of using the
	// LocalDelay bypass.
	DanceHall bool
	// Topology selects the interconnect: the paper's Ω network (default)
	// or a 2-D mesh with dimension-ordered routing.
	Topology Topology
	// Faults parameterizes the deterministic fault plane (drop, duplicate,
	// extra delay per link; see faults.go). The zero value — or any config
	// with Seed 0 — disables it, leaving delivery exactly-once and in
	// order and the no-fault code path untouched.
	Faults FaultConfig
}

// DefaultConfig returns the configuration used throughout the paper's
// simulations: unit switch delay and a one-cycle local hop.
func DefaultConfig(nodes int) Config {
	return Config{Nodes: nodes, SwitchDelay: 1, LocalDelay: 1}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Nodes < 2 || c.Nodes&(c.Nodes-1) != 0 {
		return fmt.Errorf("network: Nodes must be a power of two >= 2, got %d", c.Nodes)
	}
	if c.SwitchDelay == 0 {
		return fmt.Errorf("network: SwitchDelay must be positive")
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// Handler receives delivered payloads at a node.
type Handler func(payload any)

// Stats aggregates network-level counters.
type Stats struct {
	Messages   uint64   // messages injected
	Words      uint64   // payload words carried
	Hops       uint64   // stage traversals
	Local      uint64   // node-local deliveries that bypassed the network
	LatencySum sim.Time // sum of injection-to-delivery latencies
	QueueSum   sim.Time // portion of LatencySum due to port contention
	// Faults counts injected faults (all zero with the fault plane off).
	Faults FaultStats
}

// MeanLatency returns the average end-to-end latency per network message.
func (s Stats) MeanLatency() float64 {
	if s.Messages == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.Messages)
}

// MeanQueueing returns the average queueing delay per network message.
func (s Stats) MeanQueueing() float64 {
	if s.Messages == 0 {
		return 0
	}
	return float64(s.QueueSum) / float64(s.Messages)
}

// Network is the Ω network instance. In the default serial mode it is not
// safe for concurrent use. Built with NewParallel it runs in lane mode:
// every node's sends execute on that node's lane engine, counters are
// sharded by source node, and cross-node deliveries are buffered through
// the coordinator's deterministic window merge (sim.Parallel.Post). With
// contention on (the default), a lane never touches port-occupancy state
// during a window: it records the send (pend) and the coordinator's
// window-barrier arbiter replays all recorded sends in global injection-key
// order, resolving contention exactly as the serial engine's acquire order
// would.
type Network struct {
	cfg      Config
	engine   *sim.Engine
	par      *sim.Parallel // lane mode; nil on one lane (New)
	laneEng  []*sim.Engine // [node] lane engines (lane mode only)
	stages   int
	logN     int
	ports    [][]sim.Resource // [stage][line] (Ω topology)
	mesh     *mesh            // mesh topology
	bus      *sim.Resource    // bus topology: the single shared medium
	handlers []Handler
	inbox    []port       // per-node typed delivery endpoints
	faults   *faultPlane  // the fault plane while it is on (kept), else nil
	kept     *faultPlane  // the fault plane's memory, kept across Reset
	shards   []Stats      // per-source-node counters, summed by Stats()
	pend     [][]pendSend // contended lane mode: per-source deferred sends
	arbCnt   []int        // replay scratch: where each cycle's sends start
	arbOrd   []*pendSend  // replay scratch: the window's sends in key order
}

// pendSend is one deferred contended send: everything the window-barrier
// arbiter needs to replay the send through the port-occupancy state. The
// injection key (at, jit, src, seq) and the fault verdict are drawn at Send
// time on the source lane, so both are pure functions of that lane's own
// schedule; only the port acquisition — the globally-ordered part — waits
// for the barrier.
type pendSend struct {
	at      sim.Time
	jit     uint64
	seq     uint64
	hold    sim.Time
	src     int32
	dst     int32
	hops    int32
	v       verdict
	payload any
}

// New builds a network over the given engine. It panics on an invalid
// configuration (construction-time misconfiguration is a programming error).
func New(engine *sim.Engine, cfg Config) *Network {
	n := build(cfg)
	n.engine = engine
	return n
}

// NewParallel builds a network in lane mode over a PDES coordinator: node
// i's sends run on lane i, and cross-node deliveries go through the window
// merge. It installs the model lookahead (the minimum cross-node latency)
// on the coordinator.
//
// With contention on, switch-port occupancy is global timestamp-ordered
// state, so it is resolved at the window barrier instead of at Send time:
// sends are recorded per lane and the coordinator's arbiter (SetArbiter)
// replays them in global injection-key order. This is sound because
// senders are fire-and-forget — queueing delay is observable only at the
// destination, which the lookahead invariant keeps behind the window end —
// and contention only ever adds to the uncontended latency that
// MinCrossLatency bounds from below.
//
// A one-lane coordinator is the serial engine: NewParallel returns what
// New builds over that lane, so every send acquires its ports and every
// delivery is scheduled at once, in the serial order.
func NewParallel(par *sim.Parallel, cfg Config) *Network {
	if par.Lanes() == 1 {
		return New(par.Lane(0), cfg)
	}
	if par.Lanes() != cfg.Nodes {
		panic(fmt.Sprintf("network: %d lanes for %d nodes", par.Lanes(), cfg.Nodes))
	}
	n := build(cfg)
	n.par = par
	n.laneEng = make([]*sim.Engine, cfg.Nodes)
	for i := range n.laneEng {
		n.laneEng[i] = par.Lane(i)
	}
	if !cfg.Ideal {
		n.pend = make([][]pendSend, cfg.Nodes)
		par.SetArbiter(n.arbitrate)
	}
	par.SetLookahead(n.MinCrossLatency())
	return n
}

func build(cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	logN := bits.TrailingZeros(uint(cfg.Nodes))
	n := &Network{
		cfg:      cfg,
		stages:   logN,
		logN:     logN,
		handlers: make([]Handler, cfg.Nodes),
		inbox:    make([]port, cfg.Nodes),
		shards:   make([]Stats, cfg.Nodes),
	}
	for i := range n.inbox {
		n.inbox[i] = port{n: n, node: i}
	}
	switch cfg.Topology {
	case TopMesh:
		n.mesh = newMesh(cfg.Nodes)
	case TopBus:
		n.bus = &sim.Resource{}
	default:
		n.ports = make([][]sim.Resource, logN)
		for s := range n.ports {
			n.ports[s] = make([]sim.Resource, cfg.Nodes)
		}
	}
	n.reset(cfg.Faults)
	return n
}

// Reset returns the network to the state New (or NewParallel) builds for
// its configuration with the fault plane set to faults: every port, mesh
// link and the bus idle, every counter zero, no send pending, and the
// fault plane seeded from faults, or off when faults is not enabled.
// Attached handlers, the lane wiring, the topology's tables and the fault
// plane's memory are kept: a plane once built is reseeded in place.
// It panics on an invalid fault configuration.
func (n *Network) Reset(faults FaultConfig) {
	if err := faults.Validate(); err != nil {
		panic(err)
	}
	n.reset(faults)
}

// reset is Reset with faults already validated.
func (n *Network) reset(faults FaultConfig) {
	n.cfg.Faults = faults
	for s := range n.ports {
		clear(n.ports[s])
	}
	if n.mesh != nil {
		clear(n.mesh.links)
	}
	if n.bus != nil {
		n.bus.Reset()
	}
	clear(n.shards)
	for src, q := range n.pend {
		clear(q)
		n.pend[src] = q[:0]
	}
	clear(n.arbOrd)
	n.arbCnt, n.arbOrd = n.arbCnt[:0], n.arbOrd[:0]
	n.faults = nil
	if faults.Enabled() {
		if n.kept == nil {
			n.kept = &faultPlane{}
		}
		n.kept.reset(faults, n.cfg.Nodes)
		n.faults = n.kept
	}
}

// FaultsEnabled reports whether the fault plane is active, in which case
// delivery is no longer exactly-once or in order and callers need the
// fabric's reliable transport above this network.
func (n *Network) FaultsEnabled() bool { return n.faults != nil }

// LocalBypass reports whether a src->dst message bypasses the network (and
// therefore can never be faulted).
func (n *Network) LocalBypass(src, dst int) bool { return src == dst && !n.cfg.DanceHall }

// Nodes returns the number of nodes.
func (n *Network) Nodes() int { return n.cfg.Nodes }

// Stages returns the number of switch stages (log2 of the node count).
func (n *Network) Stages() int { return n.stages }

// Stats returns a snapshot of the counters, summed across the per-source
// shards. In lane mode call it only between windows (after the run).
func (n *Network) Stats() Stats {
	var s Stats
	for i := range n.shards {
		sh := &n.shards[i]
		s.Messages += sh.Messages
		s.Words += sh.Words
		s.Hops += sh.Hops
		s.Local += sh.Local
		s.LatencySum += sh.LatencySum
		s.QueueSum += sh.QueueSum
	}
	if n.faults != nil {
		s.Faults = n.faults.total()
	}
	return s
}

// Attach registers the delivery handler for a node. Each node must attach
// exactly once before any message addressed to it is delivered.
func (n *Network) Attach(node int, h Handler) {
	if n.handlers[node] != nil {
		panic(fmt.Sprintf("network: node %d attached twice", node))
	}
	n.handlers[node] = h
}

// holdFor returns the per-port occupancy of a message carrying `words`
// payload words.
func (n *Network) holdFor(words int) sim.Time {
	flits := sim.Time(1)
	if words > 1 {
		flits = sim.Time(words)
	}
	return n.cfg.SwitchDelay * flits
}

// route returns the sequence of (stage, line) output ports on the
// destination-tag path from src to dst. In an Ω network the line occupied
// after stage i is formed by shifting destination bits into the source
// address: line_i = ((src << (i+1)) | (dst >> (logN-i-1))) mod N.
func (n *Network) route(src, dst int, lines []int) []int {
	lines = lines[:0]
	for i := 0; i < n.stages; i++ {
		line := ((src << (i + 1)) | (dst >> (n.logN - i - 1))) & (n.cfg.Nodes - 1)
		lines = append(lines, line)
	}
	return lines
}

// Send injects a message of the given payload size (words; 0 for a control
// transaction) from src to dst, delivering it to dst's handler after the
// modeled latency. Node-local messages bypass the network entirely. In lane
// mode Send must be called from src's lane; every counter it touches is
// src's own shard, and cross-lane deliveries route through the coordinator.
// It reports whether the fault plane dropped the message: the network then
// keeps no reference to payload, which goes back to the sender at once.
func (n *Network) Send(src, dst, words int, payload any) (dropped bool) {
	eng := n.engine
	if n.par != nil {
		eng = n.laneEng[src]
	}
	now := eng.Now()
	st := &n.shards[src]
	if src == dst && !n.cfg.DanceHall {
		st.Local++
		n.deliverAt(eng, now+n.cfg.LocalDelay, src, dst, payload)
		return false
	}
	st.Messages++
	st.Words += uint64(words)
	hold := n.holdFor(words)

	hops := n.stages
	switch {
	case n.mesh != nil:
		hops = n.mesh.hops(src, dst)
	case n.bus != nil:
		hops = 1 // one bus transaction
	}
	st.Hops += uint64(hops)
	if n.pend != nil && hops > 0 {
		// Contended lane mode: record the send and let the window-barrier
		// arbiter replay it through the port state in global key order.
		// Everything drawn here — fault verdict, injection key — comes from
		// lane-local streams, in the same per-link order the serial engine
		// would draw them. A zero-hop send (DanceHall same-node) acquires
		// nothing and stays on the immediate path below.
		// A dropped send still occupies its ports, so it is recorded
		// without its payload.
		q := pendSend{at: now, hold: hold, src: int32(src), dst: int32(dst), hops: int32(hops), payload: payload}
		if n.faults != nil {
			q.v = n.faults.judge(src, dst)
			if q.v.drop {
				q.payload = nil
			}
		}
		q.jit, q.seq = n.par.DrawKey(int32(src))
		n.pend[src] = append(n.pend[src], q)
		return q.v.drop
	}
	var done sim.Time
	switch {
	case n.cfg.Ideal:
		done = now + hold*sim.Time(hops)
	case n.mesh != nil:
		done = n.mesh.traverse(src, dst, now, hold)
	case n.bus != nil:
		done = n.bus.Acquire(now, hold)
	default:
		done = n.sendPath(src, dst, now, hold)
	}
	lat := done - now
	st.LatencySum += lat
	uncontended := hold * sim.Time(hops)
	if lat > uncontended {
		st.QueueSum += lat - uncontended
	}
	if n.faults != nil {
		v := n.faults.judge(src, dst)
		if v.drop {
			return true
		}
		done += v.extra
		if v.dup {
			retain(payload)
			n.deliverAt(eng, done+v.dupAt, src, dst, payload)
		}
	}
	n.deliverAt(eng, done, src, dst, payload)
	return false
}

// sendPath walks the destination-tag route acquiring each output port in
// order and returns the delivery completion time.
func (n *Network) sendPath(src, dst int, now, hold sim.Time) sim.Time {
	t := now
	for i := 0; i < n.stages; i++ {
		line := ((src << (i + 1)) | (dst >> (n.logN - i - 1))) & (n.cfg.Nodes - 1)
		t = n.ports[i][line].Acquire(t, hold)
	}
	return t
}

// arbitrate is the coordinator's window-barrier hook in contended lane
// mode. It replays every send the lanes recorded during the window through
// the port-occupancy state in global injection-key order (time, jitter,
// source lane, source sequence) — the same order the serial engine's event
// loop would have acquired the ports in — producing deterministic delivery
// times and queueing stats regardless of worker count. Window start times
// are monotone (every recorded send lies in the window just executed, and
// the next GVT is at or beyond this window's end), so consecutive windows'
// replays are globally time-ordered and the Resource free-times advance
// exactly as they do serially. Deliveries are posted with the key drawn at
// Send time and flow into the same window's merge.
func (n *Network) arbitrate() {
	for _, q := range n.replayOrder() {
		src, dst := int(q.src), int(q.dst)
		var done sim.Time
		switch {
		case n.mesh != nil:
			done = n.mesh.traverse(src, dst, q.at, q.hold)
		case n.bus != nil:
			done = n.bus.Acquire(q.at, q.hold)
		default:
			done = n.sendPath(src, dst, q.at, q.hold)
		}
		st := &n.shards[src]
		lat := done - q.at
		st.LatencySum += lat
		uncontended := q.hold * sim.Time(q.hops)
		if lat > uncontended {
			st.QueueSum += lat - uncontended
		}
		// The fault verdict was drawn at Send time; a dropped message still
		// occupied its ports and counted toward latency, as it does on the
		// serial path.
		if !q.v.drop {
			done += q.v.extra
			if q.v.dup {
				retain(q.payload)
				n.postArbitrated(q, done+q.v.dupAt)
			}
			n.postArbitrated(q, done)
		}
		q.payload = nil
	}
	for src, q := range n.pend {
		if len(q) > 0 {
			n.pend[src] = q[:0]
		}
	}
}

// replayOrder returns the window's recorded sends in injection-key order.
// It needs no comparison sort: every send lies in the window just
// executed, at most a lookahead of cycles wide, and each source's sends
// are already in (time, sequence) order, because a lane fires its events
// in time order and draws a sequence number per send. So one stable
// counting pass over the sends' cycle, visiting sources in lane order,
// leaves each cycle's sends in (source lane, sequence) order — key order
// while every jitter draw is zero. With jitter on, each cycle's sends are
// then sorted by (jitter, source lane, sequence), one cycle at a time.
func (n *Network) replayOrder() []*pendSend {
	lo, hi, total := sim.Infinity, sim.Time(0), 0
	for _, q := range n.pend {
		if len(q) > 0 {
			lo, hi = min(lo, q[0].at), max(hi, q[len(q)-1].at)
			total += len(q)
		}
	}
	if total == 0 {
		return nil
	}
	// start[c] counts, then indexes, the sends of cycle lo+c.
	start := slices.Grow(n.arbCnt[:0], int(hi-lo)+1)[:int(hi-lo)+1]
	clear(start)
	for _, q := range n.pend {
		for i := range q {
			start[q[i].at-lo]++
		}
	}
	sum := 0
	for c, k := range start {
		start[c], sum = sum, sum+k
	}
	ord := slices.Grow(n.arbOrd[:0], total)[:total]
	var jit uint64
	for _, q := range n.pend {
		for i := range q {
			c := q[i].at - lo
			ord[start[c]] = &q[i]
			start[c]++
			jit |= q[i].jit
		}
	}
	// start[c] now ends cycle lo+c's sends. Each cycle is in (source
	// lane, sequence) order, which is key order while every jitter draw
	// is zero; otherwise each cycle is sorted on its own.
	if jit != 0 {
		from := 0
		for _, to := range start {
			if to-from > 1 {
				slices.SortFunc(ord[from:to], func(a, b *pendSend) int {
					if c := cmp.Compare(a.jit, b.jit); c != 0 {
						return c
					}
					if c := cmp.Compare(a.src, b.src); c != 0 {
						return c
					}
					return cmp.Compare(a.seq, b.seq)
				})
			}
			from = to
		}
	}
	n.arbCnt, n.arbOrd = start, ord
	return ord
}

// postArbitrated posts one arbitrated delivery through the coordinator,
// reusing the injection key drawn at Send time (a trailing duplicate shares
// the key but lands at a strictly later time, so the pair still orders
// deterministically).
func (n *Network) postArbitrated(q *pendSend, t sim.Time) {
	if n.handlers[q.dst] == nil {
		panic(fmt.Sprintf("network: no handler attached at node %d", q.dst))
	}
	n.par.PostKeyed(q.src, q.dst, t, q.jit, q.seq, &n.inbox[q.dst], q.payload)
}

// retain adds a holder to a payload that counts its holders (a fabric's
// pooled message record, msg.Msg): a duplicated message is one payload
// delivered twice, and each delivery lets go of it once. The arbiter calls
// it only at the window barrier, while no lane runs.
func retain(payload any) {
	if r, ok := payload.(interface{ Retain() }); ok {
		r.Retain()
	}
}

// port is a per-node delivery endpoint implementing sim.Receiver, so message
// delivery schedules a typed event instead of allocating a closure per
// message.
type port struct {
	n    *Network
	node int
}

// OnDeliver hands the payload to the node's handler.
func (p *port) OnDeliver(payload any) { p.n.handlers[p.node](payload) }

// deliverAt schedules the delivery event. In serial mode everything goes on
// the single engine. In lane mode a same-node delivery stays on the source
// lane (it is invisible to other lanes), while a cross-node delivery is
// posted through the coordinator's window merge — that is the only path by
// which one lane's execution affects another's schedule.
func (n *Network) deliverAt(eng *sim.Engine, t sim.Time, src, dst int, payload any) {
	if n.handlers[dst] == nil {
		panic(fmt.Sprintf("network: no handler attached at node %d", dst))
	}
	if n.par != nil && src != dst {
		n.par.Post(int32(src), int32(dst), t, &n.inbox[dst], payload)
		return
	}
	eng.AtDeliver(t, &n.inbox[dst], payload)
}

// UncontendedLatency returns the latency a message of the given size would
// experience on an empty network (t_nw in the paper's cost model). For the
// Ω network every pair is log2(N) stages apart; for the mesh the average
// Manhattan distance (rows+cols)/2 is used as the representative figure.
func (n *Network) UncontendedLatency(words int) sim.Time {
	hops := n.stages
	switch {
	case n.mesh != nil:
		hops = (n.mesh.rows + n.mesh.cols) / 2
	case n.bus != nil:
		hops = 1
	}
	return n.holdFor(words) * sim.Time(hops)
}

// MinCrossLatency returns the minimum modeled latency of any message
// between two *different* nodes: a one-flit control message over the
// shortest route (every pair is log2 N stages apart on the Ω network; the
// shortest mesh route is one hop between neighbors; the bus is always one
// transaction). This is the PDES lookahead — contention, fault-plane extra
// delay, and larger payloads only ever add to it, so no cross-lane effect
// can land sooner. Node-local bypass traffic is exempt (it never crosses a
// lane) and does not bound the window.
func (n *Network) MinCrossLatency() sim.Time {
	hops := n.stages
	if n.mesh != nil || n.bus != nil {
		hops = 1
	}
	la := n.holdFor(0) * sim.Time(hops)
	if la < 1 {
		la = 1
	}
	return la
}

// PortUtilization returns the mean utilization across all switch output
// ports over the given horizon.
func (n *Network) PortUtilization(horizon sim.Time) float64 {
	if horizon == 0 {
		return 0
	}
	var busy sim.Time
	var count int
	if n.mesh != nil {
		busy, count = n.mesh.busy()
	}
	if n.bus != nil {
		busy += n.bus.Busy
		count++
	}
	for s := range n.ports {
		for l := range n.ports[s] {
			busy += n.ports[s][l].Busy
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return float64(busy) / float64(horizon) / float64(count)
}
