package core

import (
	"context"
	"fmt"
	"io"

	"ssmp/internal/barrier"
	"ssmp/internal/cache"
	"ssmp/internal/cbl"
	"ssmp/internal/fabric"
	"ssmp/internal/history"
	"ssmp/internal/mem"
	"ssmp/internal/metrics"
	"ssmp/internal/msg"
	"ssmp/internal/network"
	"ssmp/internal/ruc"
	"ssmp/internal/sim"
	"ssmp/internal/wbi"
	"ssmp/internal/wbuf"
)

// node bundles one processor node's controllers. Exactly one of the CBL or
// WBI controller sets is populated, per the machine's protocol.
type node struct {
	id    int
	store *mem.Store
	proc  Proc

	// CBL machine
	rucN *ruc.Node
	rucH *ruc.Home
	cblU *cbl.Unit
	cblH *cbl.Home
	barU *barrier.Unit
	barH *barrier.Home
	buf  *wbuf.Buffer

	// WBI machine
	wbiN *wbi.Node
	wbiH *wbi.Home
}

// Machine is a simulated multiprocessor.
type Machine struct {
	cfg   Config
	par   *sim.Parallel
	net   *network.Network
	fab   *fabric.Fabric   // root fabric: every node's on one lane, its views' counters on many
	views []*fabric.Fabric // per-node fabric views, one per lane (nil on one lane)
	geom  mem.Geometry
	nodes []node // one allocation for every node and its processor

	running  bool
	aborting bool
	finished int // processors done with their program or op list
	hist     *history.Recorder
	onOp     func(proc int, o Op)
	// words is what RunOps returns: each processor's word list.
	words [][]mem.Word
	// shelf is the pool shelf of the machine's shape once the pool has
	// handed the machine out or taken it, so putting it back needs no
	// lookup.
	shelf *shelf
}

// NewMachine builds a machine; it panics on an invalid configuration.
//
// Every machine runs on a sim.Parallel coordinator. With SimWorkers == 0,
// or on the bus topology, it has one lane holding every node: the nodes
// share the root fabric and its one transport, and the run is the serial
// engine's — the same events in the same order. The bus is one global
// serially-reusable resource, so lanes would serialize every message
// through the barrier arbiter: all coordination cost, no parallelism.
//
// Otherwise there is one lane per node, with per-node fabric views that
// schedule on their lanes and own their transport instances, and the
// coordinator's lookahead is the network's minimum cross-node latency.
// Everything a node's controllers touch — store, cache, lock cache, write
// buffer, RMR row, per-link fault streams and transport state — is owned
// by that node's lane; the only cross-lane channels are the network's
// deterministic window merge and, with contention on, the coordinator's
// window-barrier port arbiter (network.NewParallel). Every lane runs on
// the goroutine that calls Run, so the counters the lanes share — message
// counts, network and fault statistics, the free list of message records
// — need no sharding, and a run starts no goroutine.
func NewMachine(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	lanes := 1
	if cfg.SimWorkers > 0 && cfg.Topology != network.TopBus {
		lanes = cfg.Nodes
	}
	par := sim.NewParallel(lanes)
	par.SetHorizon(cfg.Horizon)
	nw := network.NewParallel(par, cfg.netConfig())
	fab := fabric.New(par.Lane(0), nw, cfg.Timing)
	geom := mem.Geometry{BlockWords: cfg.BlockWords, Nodes: cfg.Nodes}
	m := &Machine{par: par, net: nw, fab: fab, geom: geom, nodes: make([]node, cfg.Nodes)}

	for i := range m.nodes {
		n := &m.nodes[i]
		n.id, n.store = i, mem.NewStore(geom)
		nodeFab := fab
		if lanes > 1 {
			nodeFab = fab.View(par.Lane(i), i)
			m.views = append(m.views, nodeFab)
		}
		nodeEng := nodeFab.Eng
		switch cfg.Protocol {
		case ProtoCBL:
			n.rucN = ruc.NewNode(nodeFab, i, geom, cache.New(geom, cfg.CacheSets, cfg.CacheWays))
			n.rucH = ruc.NewHome(nodeFab, i, geom, n.store)
			n.rucH.WriteUpdateMode = cfg.WriteUpdate
			n.cblU = cbl.NewUnit(nodeFab, i, geom, cfg.LockEntries)
			n.cblU.DirectHandoff = cfg.DirectHandoff
			n.cblH = cbl.NewHome(nodeFab, i, geom, n.store)
			n.barU = barrier.NewUnit(nodeFab, i, geom)
			n.barH = barrier.NewHome(nodeFab, i, geom)
			n.buf = wbuf.New(nodeEng, cfg.Buf, n.rucN.IssueWriteGlobal)
			n.rucN.SetGlobalAckHandler(n.buf.Ack)
		case ProtoWBI:
			n.wbiN = wbi.NewNode(nodeFab, i, geom, cache.New(geom, cfg.CacheSets, cfg.CacheWays))
			n.wbiH = wbi.NewHome(nodeFab, i, geom, n.store)
			n.wbiH.MaxPointers = cfg.DirMaxPointers
		}
		n.proc.init(m, n, nodeEng)
		i := i
		nodeFab.Attach(i, func(mg *msg.Msg) { m.dispatch(i, mg) })
	}
	m.start(&cfg)
	return m
}

// Reset returns the machine to exactly the state NewMachine(cfg) builds,
// keeping its memory: every lane, port, counter, controller, cache, store,
// processor and hook is as a fresh build leaves it, so a run on the reset
// machine cannot be told from a run on a fresh one. cfg may differ from the
// machine's configuration only in Jitter and Faults; any other difference
// panics, as an invalid configuration does.
func (m *Machine) Reset(cfg Config) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if !m.cfg.resettableTo(&cfg) {
		panic("core: Reset may change only Jitter and Faults")
	}
	m.par.Reset()
	m.net.Reset(cfg.Faults)
	m.fab.Reset()
	for _, v := range m.views {
		v.Reset()
	}
	for i := range m.nodes {
		n := &m.nodes[i]
		n.store.Reset()
		switch m.cfg.Protocol {
		case ProtoCBL:
			n.rucN.Cache().Reset()
			n.rucN.Reset()
			n.rucH.Reset()
			n.cblU.Reset()
			n.cblH.Reset()
			n.barU.Reset()
			n.barH.Reset()
			n.buf.Reset()
		case ProtoWBI:
			n.wbiN.Cache().Reset()
			n.wbiN.Reset()
			n.wbiH.Reset()
		}
		n.proc.reset()
	}
	m.running, m.aborting, m.hist, m.onOp, m.words = false, false, nil, nil, m.words[:0]
	m.finished = 0
	m.start(&cfg)
}

// start gives a machine whose parts are as their constructors build them
// the settings of cfg that are not the parts' own: the configuration
// itself, the jitter seed and, with the fault plane on, the reliable
// transport on the root fabric and every view. NewMachine and Reset both
// end with it.
func (m *Machine) start(cfg *Config) {
	m.cfg = *cfg
	m.par.SetJitter(cfg.Jitter)
	if m.net.FaultsEnabled() {
		// A faulty fabric needs the reliable transport above it; the two
		// are enabled together so the protocol controllers always see
		// exactly-once, per-link-FIFO delivery.
		m.fab.EnableTransport()
		for _, v := range m.views {
			v.EnableTransport()
		}
	}
}

// Lanes returns the number of PDES lanes the machine runs on: 1 for a
// serial run (SimWorkers == 0, or the bus topology), else one per node.
func (m *Machine) Lanes() int { return m.par.Lanes() }

// dispatch routes an inbound message to the owning controller.
func (m *Machine) dispatch(nodeID int, mg *msg.Msg) {
	n := &m.nodes[nodeID]
	if m.cfg.Protocol == ProtoWBI {
		if n.wbiH.Handles(mg.Kind) {
			n.wbiH.Handle(mg)
		} else {
			n.wbiN.Handle(mg)
		}
		return
	}
	switch {
	case mg.Kind == msg.SetPrevPtr || mg.Kind == msg.SetNextPtr:
		// Lock-queue splices are flagged with a lock mode; update-chain
		// splices are not.
		if mg.Mode != msg.LockNone {
			n.cblU.Handle(mg)
		} else {
			n.rucN.Handle(mg)
		}
	case n.cblH.Handles(mg.Kind):
		n.cblH.Handle(mg)
	case n.cblU.Handles(mg.Kind):
		n.cblU.Handle(mg)
	case n.barH.Handles(mg.Kind):
		n.barH.Handle(mg)
	case n.barU.Handles(mg.Kind):
		n.barU.Handle(mg)
	case n.rucH.Handles(mg.Kind):
		n.rucH.Handle(mg)
	case n.rucN.Handles(mg.Kind):
		n.rucN.Handle(mg)
	default:
		panic(fmt.Sprintf("core: node %d cannot dispatch %v", nodeID, mg.Kind))
	}
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Geometry returns the address-space geometry.
func (m *Machine) Geometry() mem.Geometry { return m.geom }

// Now returns the simulation clock after the run: the time of the last
// event fired, or of the event that tripped the horizon.
func (m *Machine) Now() sim.Time { return m.par.Now() }

// Proc returns processor i's handle, for use inside its program function.
func (m *Machine) Proc(i int) *Proc { return &m.nodes[i].proc }

// Messages returns the global message collector.
func (m *Machine) Messages() *metrics.Collector { return m.fab.Coll }

// RMRs returns the per-processor remote-memory-reference account. The
// cache-side controllers classify every shared reference as local (served
// by the issuing node's cache or lock cache) or remote (required an
// interconnect transaction) at their hit/miss decision points.
func (m *Machine) RMRs() *metrics.RMRAccount { return m.fab.RMR }

// EnableHistory turns on operation recording for linearizability checking:
// every Read/Write/ReadGlobal/WriteGlobal/RMW is logged with its real-time
// interval, and every ReadUpdate as a read. Call before Run (after Reset,
// again: Reset turns recording off); check the returned recorder
// afterwards. On many lanes each interval is on its processor's lane
// clock, and the records are appended window by window, lane by lane.
func (m *Machine) EnableHistory() *history.Recorder {
	m.hist = &history.Recorder{}
	return m.hist
}

// TraceMessages writes one line per injected message to w — a debugging aid
// showing cycle, kind, endpoints, block and payload size; the cycle is the
// sending node's lane clock. Call before Run. On many lanes the lines come
// window by window, lane by lane, so within a window they are not in cycle
// order.
func (m *Machine) TraceMessages(w io.Writer) {
	m.fab.OnSend = func(mg *msg.Msg) {
		fmt.Fprintf(w, "%10d %-18s %2d -> %2d block %-6d words %d\n",
			m.nodes[mg.Src].proc.eng.Now(), mg.Kind, mg.Src, mg.Dst, mg.Block, mg.Words())
	}
}

// NetStats returns network-level statistics.
func (m *Machine) NetStats() network.Stats { return m.net.Stats() }

// ReadMemory reads a word directly from the owning memory module, outside
// the simulation (for seeding and verification).
func (m *Machine) ReadMemory(a mem.Addr) mem.Word {
	return m.nodes[m.geom.Home(m.geom.BlockOf(a))].store.ReadWord(a)
}

// WriteMemory writes a word directly into the owning memory module, outside
// the simulation (for seeding initial data).
func (m *Machine) WriteMemory(a mem.Addr, w mem.Word) {
	m.nodes[m.geom.Home(m.geom.BlockOf(a))].store.WriteWord(a, w)
}

// Program is the code executed by one simulated processor. It runs as a
// coroutine of the event loop: each blocking primitive switches back to the
// loop, which switches into the program again when the primitive completes,
// so the program and the loop never run at once and programs may use
// ordinary Go control flow and the Proc's blocking primitives without data
// races. A program must not call runtime.Goexit, nor t.FailNow or t.Fatal,
// which call it: the coroutine hands a Goexit on to the goroutine that
// resumed the program, which is the event loop's. A program that is only a
// fixed list of calls runs without a coroutine through RunOps, and a
// program's spin-wait (Proc.Spin) switches once for the whole wait, not
// once per probe: the event loop performs the probes.
type Program func(p *Proc)

// Result summarizes a completed run.
type Result struct {
	// Cycles is the completion time: the clock when the last processor
	// finished.
	Cycles sim.Time
	// Events is the number of simulation events the kernel executed.
	Events uint64
	// Messages is the total network message count.
	Messages uint64
	// MeanNetLatency and MeanNetQueueing summarize network behaviour.
	MeanNetLatency  float64
	MeanNetQueueing float64
	// MeanUtilization averages the per-processor useful-computation
	// fraction (see ProcStats.Utilization) over processors that ran.
	MeanUtilization float64
	// Faults reports fault injection and transport recovery counters
	// (all zero when Config.Faults is disabled).
	Faults metrics.FaultCounters
	// RMR totals the remote-memory-reference classification over all
	// processors; Machine.RMRs has the per-processor breakdown.
	RMR metrics.RMRCounters
}

// ErrDeadlock is returned when the event queue drains with processors still
// blocked (for example a lock that is never released).
type ErrDeadlock struct{ Stuck []int }

func (e *ErrDeadlock) Error() string {
	return fmt.Sprintf("core: deadlock — processors %v blocked with no pending events", e.Stuck)
}

// drainAborted unwinds every still-parked program after the event loop has
// stopped early (cancellation, horizon, deadlock, a panicking event). Each
// program is parked in its coroutine; a step with the abort flag set makes
// it unwind via an abortSignal panic and finish, so no coroutine outlives
// the run. An op list finishes where it stands.
func (m *Machine) drainAborted() {
	m.aborting = true
	for i := range m.nodes {
		if p := &m.nodes[i].proc; !p.done {
			p.step(0)
		}
	}
}

// Run executes one program per processor to completion and returns the
// run's metrics. Programs[i] runs on processor i; a nil entry idles that
// processor. Run may be called once per NewMachine or Reset.
func (m *Machine) Run(programs []Program) (Result, error) {
	return m.RunContext(context.Background(), programs)
}

// RunContext is Run with cancellation: when ctx is cancelled (or its
// deadline passes) the event loop stops at the next interrupt poll, every
// parked program is unwound, and the ctx error is returned. Cancellation
// cannot perturb a completed run's determinism — it only ends a run early.
func (m *Machine) RunContext(ctx context.Context, programs []Program) (Result, error) {
	m.prepare(ctx, len(programs), "programs")
	return m.result(m.execute(programs, nil))
}

// RunOps runs one list of primitive calls per processor, each call
// performed as Proc.Do performs it, and returns the run's metrics and the
// words the calls returned: words[i][j] is what ops[i][j] returned (after
// an error, only the calls that completed have one). ops[i] runs on
// processor i; a nil list idles that processor, while an empty one runs
// as a program that makes no call does. The run is the one Run makes of
// programs calling Do on each record — the same events, results and
// observer reports — but the event loop performs the calls itself, so it
// starts no coroutine or goroutine. The words live in the machine's memory
// and stay valid until it is Reset. RunOps, like Run, may be called once
// per NewMachine or Reset.
func (m *Machine) RunOps(ops [][]Op) (Result, [][]mem.Word, error) {
	m.prepare(context.Background(), len(ops), "op lists")
	res, err := m.result(m.execute(nil, ops))
	for i := range m.nodes {
		m.words = append(m.words, m.nodes[i].proc.words)
	}
	return res, m.words, err
}

// prepare readies a run of n programs or op lists (named what), with ctx's
// cancellation polled by the event loop.
func (m *Machine) prepare(ctx context.Context, n int, what string) {
	if m.running {
		panic("core: Machine.Run called twice")
	}
	m.running = true
	if n != m.cfg.Nodes {
		panic(fmt.Sprintf("core: %d %s for %d nodes", n, what, m.cfg.Nodes))
	}
	if ctx.Done() != nil {
		poll := func() error {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
				return nil
			}
		}
		m.par.SetInterrupt(poll)
	}
}

// result returns the metrics of a run that execute ended with err, or the
// error: err itself, or a processor's panic.
func (m *Machine) result(err error) (Result, error) {
	if err != nil {
		return Result{}, err
	}
	for i := range m.nodes {
		if err := m.nodes[i].proc.err; err != nil {
			return Result{}, fmt.Errorf("core: processor %d panicked: %v", i, err)
		}
	}
	st := m.net.Stats()
	var utilSum float64
	var utilN int
	for i := range m.nodes {
		if p := &m.nodes[i].proc; p.runs {
			utilSum += p.Stats().Utilization()
			utilN++
		}
	}
	res := Result{
		Cycles:          m.Now(),
		Events:          m.par.Fired(),
		Messages:        m.fab.Coll.Total(),
		MeanNetLatency:  st.MeanLatency(),
		MeanNetQueueing: st.MeanQueueing(),
		Faults:          m.fab.FaultCounters(),
		RMR:             m.fab.RMR.Total(),
	}
	if utilN > 0 {
		res.MeanUtilization = utilSum / float64(utilN)
	}
	return res, nil
}

// execute starts the programs' coroutines, or the op lists, and runs the
// event loop; a processor with neither idles. When the loop stops early or
// the queue drains with programs still parked, it unwinds them and returns
// the loop's error or an *ErrDeadlock.
func (m *Machine) execute(programs []Program, lists [][]Op) error {
	active := 0
	for i := range m.nodes {
		p := &m.nodes[i].proc
		switch {
		case programs != nil && programs[i] != nil:
			p.start(programs[i])
		case lists != nil && lists[i] != nil:
			p.startOps(lists[i])
		default:
			p.done = true
			continue
		}
		active++
	}
	m.finished = m.cfg.Nodes - active
	if err := m.runEvents(); err != nil {
		return fmt.Errorf("core: %w at cycle %d", err, m.Now())
	}
	if m.finished < m.cfg.Nodes {
		var stuck []int
		for i := range m.nodes {
			if !m.nodes[i].proc.done {
				stuck = append(stuck, i)
			}
		}
		m.drainAborted()
		return &ErrDeadlock{Stuck: stuck}
	}
	return nil
}

// runEvents runs the event loop and, when it stops early, unwinds the
// parked programs: after an error (cancellation, horizon) before returning
// it, and after a panicking event before the panic reaches Run's caller, so
// neither leaks a coroutine per processor.
func (m *Machine) runEvents() (err error) {
	done := false
	defer func() {
		if !done || err != nil {
			m.drainAborted()
		}
	}()
	err = m.par.Run()
	done = true
	return err
}
