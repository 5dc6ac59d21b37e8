// Package kvapp is the repository's first application-scale workload: a
// sharded key-value service whose server loops are programs running *inside*
// the simulated multiprocessor, serving a synthetic client population.
//
// Architecture (DESIGN.md §12):
//
//   - Keys hash to home shards; each shard is guarded by a pluggable
//     synczoo lock (the paper's hardware CBL lock, MCS, test-and-set, ...),
//     which also selects the machine protocol, exactly as the zoo benches
//     do.
//   - Every key's current value is a version counter in a memory block of
//     its own; updates are locked read-modify-writes at the shard
//     (READ-GLOBAL + WRITE-GLOBAL inside the critical section, published by
//     the release's CP-Synch flush).
//   - On the CBL machine, reads of hot keys take the paper's READ-UPDATE
//     fast path: the client subscribes the key's block once, and from then
//     on plain READs are local cache hits kept fresh by the home's update
//     propagation — invalidation-free reads, the protocol's design point.
//     Cold keys use READ-GLOBAL (always fresh at memory, no cache fill that
//     could go stale). A bounded per-node subscription set (SubCap) evicts
//     via RESET-UPDATE.
//   - Each processor multiplexes Sessions logical clients, each with its
//     own seeded bursty arrival process and drawing keys from a shared
//     Zipfian popularity law; the op mix is get/put/CAS. Open-loop mode
//     measures latency from the *scheduled* arrival (queueing included);
//     closed-loop mode from the issue instant (pure service time).
//
// All mutable Go-side state is per-processor (client caches, op logs,
// latency histograms), so the workload is lane-safe: results are
// bit-identical at every core.Config.SimWorkers >= 1, and per-processor
// logs merge deterministically after the run.
//
// Every run is self-verifying: the per-key sequential-consistency oracle
// (oracle.go) checks the recorded operation logs after the machine stops.
package kvapp

import (
	"context"
	"fmt"

	"ssmp/internal/core"
	"ssmp/internal/mem"
	"ssmp/internal/metrics"
	"ssmp/internal/network"
	"ssmp/internal/sim"
	"ssmp/internal/synczoo"
	"ssmp/internal/workload"
)

// OpKind tags a client operation.
type OpKind uint8

const (
	OpGet OpKind = iota
	OpPut
	OpCAS
	numOpKinds
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpCAS:
		return "cas"
	}
	return "op?"
}

// Spec parameterizes the service and its client population. The zero value
// is not usable; start from DefaultSpec.
type Spec struct {
	// Procs is the machine size; every node runs one server/client loop.
	Procs int `json:"procs"`
	// Lock is the synczoo lock algorithm guarding each shard ("cbl",
	// "mcs", "tas", ...). It selects the machine protocol.
	Lock string `json:"lock"`
	// Keys is the key-space size; each key owns one memory block.
	Keys int `json:"keys"`
	// Shards is the number of shard locks keys hash onto.
	Shards int `json:"shards"`
	// Sessions is the number of logical clients multiplexed per processor.
	Sessions int `json:"sessions"`
	// Ops is the number of requests each processor serves.
	Ops int `json:"ops"`
	// GetFrac and PutFrac split the op mix; the remainder is CAS.
	GetFrac float64 `json:"get_frac"`
	PutFrac float64 `json:"put_frac"`
	// Theta is the Zipfian popularity skew (0 = uniform).
	Theta float64 `json:"theta"`
	// Arrival is each session's bursty arrival process.
	Arrival workload.Bursty `json:"arrival"`
	// OpenLoop selects open-loop arrivals (latency includes queueing
	// behind the scheduled arrival); false is closed-loop think time.
	OpenLoop bool `json:"open_loop"`
	// SubCap bounds the per-node READ-UPDATE subscription set (CBL only).
	SubCap int `json:"sub_cap"`
	// SubscribeAfter is the number of accesses before a key is considered
	// hot enough to subscribe (CBL only; >= 1).
	SubscribeAfter int `json:"subscribe_after"`
	// Seed drives all workload randomness.
	Seed uint64 `json:"seed"`
}

// DefaultSpec returns a read-mostly population for the given machine size.
func DefaultSpec(procs int) Spec {
	return Spec{
		Procs:          procs,
		Lock:           "cbl",
		Keys:           1024,
		Shards:         16,
		Sessions:       4,
		Ops:            256,
		GetFrac:        0.80,
		PutFrac:        0.15,
		Theta:          0.99,
		Arrival:        workload.Bursty{MeanGap: 200, MeanOff: 2000, MeanBurst: 8},
		OpenLoop:       true,
		SubCap:         64,
		SubscribeAfter: 2,
		Seed:           42,
	}
}

// Validate reports whether the spec is usable.
func (s Spec) Validate() error {
	if s.Procs < 2 || s.Procs&(s.Procs-1) != 0 {
		return fmt.Errorf("kvapp: Procs must be a power of two >= 2, got %d", s.Procs)
	}
	if _, err := synczoo.LockAlgoByKey(s.Lock); err != nil {
		return err
	}
	if s.Keys < 1 || s.Keys > 1<<20 {
		return fmt.Errorf("kvapp: Keys must be in [1,%d], got %d", 1<<20, s.Keys)
	}
	if s.Shards < 1 || s.Shards > s.Keys {
		return fmt.Errorf("kvapp: Shards must be in [1,Keys], got %d", s.Shards)
	}
	if s.Sessions < 1 || s.Ops < 1 {
		return fmt.Errorf("kvapp: Sessions and Ops must be >= 1, got %d/%d", s.Sessions, s.Ops)
	}
	if s.GetFrac < 0 || s.PutFrac < 0 || s.GetFrac+s.PutFrac > 1 {
		return fmt.Errorf("kvapp: op mix fractions must be >= 0 and sum <= 1, got get=%g put=%g", s.GetFrac, s.PutFrac)
	}
	if s.Theta < 0 {
		return fmt.Errorf("kvapp: Theta must be >= 0, got %g", s.Theta)
	}
	if err := s.Arrival.Validate(); err != nil {
		return err
	}
	if s.SubCap < 0 || s.SubscribeAfter < 1 {
		return fmt.Errorf("kvapp: SubCap must be >= 0 and SubscribeAfter >= 1, got %d/%d", s.SubCap, s.SubscribeAfter)
	}
	return nil
}

// RunOptions carry the machine-level knobs a run composes with.
type RunOptions struct {
	// Jitter seeds schedule tie-breaking (core.Config.Jitter).
	Jitter uint64
	// Faults enables the interconnect fault plane (zero = reliable).
	Faults network.FaultConfig
	// SimWorkers selects the PDES lane engine (core.Config.SimWorkers):
	// any value >= 1 runs one lane per node, every lane on the caller's
	// goroutine, so results are bit-identical at every value >= 1. The
	// contended network is lane-safe (window-barrier port arbitration), so
	// IdealNetwork is not required.
	SimWorkers int
	// IdealNetwork removes switch contention (ablation).
	IdealNetwork bool
	// Horizon overrides the livelock guard (0 = core default).
	Horizon sim.Time
}

// layout is the service's simulated address map: shard locks first (each
// algorithm lays itself out in the arena), then one block per key.
type layout struct {
	locks   []synczoo.Lock
	keyAddr []mem.Addr
}

// shardOf hashes a key to its home shard.
func (s Spec) shardOf(key int) int {
	return int(splitmix(uint64(key)) % uint64(s.Shards))
}

// splitmix is the same mixer the workload streams use.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// build lays the store out in a fresh arena over the machine's geometry.
func (s Spec) build(algo synczoo.LockAlgo, geom mem.Geometry) *layout {
	a := synczoo.NewArena(geom)
	lay := &layout{
		locks:   make([]synczoo.Lock, s.Shards),
		keyAddr: make([]mem.Addr, s.Keys),
	}
	for i := 0; i < s.Shards; i++ {
		lay.locks[i] = algo.New(a, s.Procs).Lock
	}
	for k := 0; k < s.Keys; k++ {
		lay.keyAddr[k] = a.Block()
	}
	return lay
}

// opRec is one logged operation for the oracle: the version read at the
// store and, for updates, the version written.
type opRec struct {
	kind  OpKind
	key   int
	read  mem.Word
	wrote mem.Word // 0 = no write (gets, failed CAS)
}

// Counters summarize what a run's clients did.
type Counters struct {
	Ops      uint64 `json:"ops"`
	Gets     uint64 `json:"gets"`
	Puts     uint64 `json:"puts"`
	CASes    uint64 `json:"cases"`
	CASFails uint64 `json:"cas_fails"`
	// FastReads are gets served by the READ-UPDATE subscription fast path
	// (a plain READ on a subscribed line); GlobalReads are cold-key
	// READ-GLOBALs; Subscribes/Unsubscribes count subscription churn.
	// GuardHits count fast reads whose propagated value lagged a version
	// this client had already observed (served from the newer local copy).
	FastReads    uint64 `json:"fast_reads"`
	GlobalReads  uint64 `json:"global_reads"`
	Subscribes   uint64 `json:"subscribes"`
	Unsubscribes uint64 `json:"unsubscribes"`
	GuardHits    uint64 `json:"guard_hits"`
}

// add merges another counter set.
func (c *Counters) add(o Counters) {
	c.Ops += o.Ops
	c.Gets += o.Gets
	c.Puts += o.Puts
	c.CASes += o.CASes
	c.CASFails += o.CASFails
	c.FastReads += o.FastReads
	c.GlobalReads += o.GlobalReads
	c.Subscribes += o.Subscribes
	c.Unsubscribes += o.Unsubscribes
	c.GuardHits += o.GuardHits
}

// procResult is one processor's slice of the run, filled in by its own
// program only (lane-safe).
type procResult struct {
	counters Counters
	lat      [numOpKinds]metrics.Histogram
	log      []opRec
}

// Result is a completed run: the simulation result, merged latency
// distributions, counters, and the oracle's verdict.
type Result struct {
	Spec Spec
	Sim  core.Result
	Counters
	// Lat holds the per-op-kind latency distributions (cycles); All merges
	// them.
	Lat [numOpKinds]metrics.Histogram
	All metrics.Histogram
	// Oracle is the per-key sequential-consistency verdict.
	Oracle OracleReport
}

// P50, P99 and Mean summarize the overall latency distribution in cycles.
func (r *Result) P50() uint64   { return r.All.Quantile(0.50) }
func (r *Result) P99() uint64   { return r.All.Quantile(0.99) }
func (r *Result) Mean() float64 { return r.All.Mean() }

// ThroughputOpsPerKCycle is completed operations per thousand cycles.
func (r *Result) ThroughputOpsPerKCycle() float64 {
	if r.Sim.Cycles == 0 {
		return 0
	}
	return float64(r.Ops) * 1000 / float64(r.Sim.Cycles)
}

// Check returns an error when the oracle found a violation.
func (r *Result) Check() error {
	if len(r.Oracle.Violations) > 0 {
		return fmt.Errorf("kvapp: %s p=%d seed=%d: oracle violation: %s",
			r.Spec.Lock, r.Spec.Procs, r.Spec.Seed, r.Oracle.Violations[0])
	}
	return nil
}

// client is one processor's store-facing state. Everything here is local to
// the owning program.
type client struct {
	spec *Spec
	lay  *layout
	cbl  bool

	subs  map[int]uint64   // subscribed keys → last-use tick (CBL only)
	seen  map[int]int      // get-access counts toward SubscribeAfter
	last  map[int]mem.Word // newest version observed per key
	clock uint64           // LRU clock for subscription eviction

	res *procResult
}

func newClient(spec *Spec, lay *layout, cbl bool, res *procResult) *client {
	return &client{
		spec: spec, lay: lay, cbl: cbl,
		subs: make(map[int]uint64),
		seen: make(map[int]int),
		last: make(map[int]mem.Word),
		res:  res,
	}
}

// observe notes the newest version this client has evidence of for key.
func (c *client) observe(key int, v mem.Word) {
	if v > c.last[key] {
		c.last[key] = v
	}
}

// get reads the key's current version. On the CBL machine hot keys ride the
// READ-UPDATE subscription fast path; cold keys use READ-GLOBAL so no
// unsubscribed cache line can serve stale data forever. On the WBI machine
// a plain read is coherent.
func (c *client) get(p *core.Proc, key int) mem.Word {
	a := c.lay.keyAddr[key]
	c.res.counters.Gets++
	if !c.cbl {
		v := p.Read(a)
		c.observe(key, v)
		return v
	}
	if _, ok := c.subs[key]; ok {
		v := p.Read(a)
		c.res.counters.FastReads++
		if v < c.last[key] {
			// The subscription's cached line lags a version this client
			// already observed (update propagation is asynchronous, a line
			// may have been silently replaced, and the client's own locked
			// updates read fresher versions at the home). The client's
			// newest observation is the fresher answer; monotonicity is
			// preserved.
			v = c.last[key]
			c.res.counters.GuardHits++
		}
		c.clock++
		c.subs[key] = c.clock
		c.observe(key, v)
		return v
	}
	c.seen[key]++
	if c.spec.SubCap > 0 && c.seen[key] >= c.spec.SubscribeAfter {
		if len(c.subs) >= c.spec.SubCap {
			c.evict(p)
		}
		v := p.ReadUpdate(a)
		c.res.counters.Subscribes++
		c.clock++
		c.subs[key] = c.clock
		c.observe(key, v)
		return v
	}
	v := p.ReadGlobal(a)
	c.res.counters.GlobalReads++
	c.observe(key, v)
	return v
}

// evict unsubscribes the least recently used subscription.
func (c *client) evict(p *core.Proc) {
	victim, best := -1, uint64(0)
	for k, use := range c.subs {
		if victim == -1 || use < best || (use == best && k < victim) {
			victim, best = k, use
		}
	}
	p.ResetUpdate(c.lay.keyAddr[victim])
	delete(c.subs, victim)
	c.res.counters.Unsubscribes++
}

// update performs the locked read-modify-write both puts and CASes share:
// acquire the key's shard lock, read the current version fresh from the
// key's home, conditionally write its successor, release (the CP-Synch
// flush publishes the write before the lock moves on). Returns the version
// read and the version written (0 if none).
func (c *client) update(p *core.Proc, key int, decide func(cur mem.Word) (mem.Word, bool)) (mem.Word, mem.Word) {
	a := c.lay.keyAddr[key]
	lock := c.lay.locks[c.spec.shardOf(key)]
	lock.Acquire(p)
	cur := p.ReadGlobal(a)
	next, write := decide(cur)
	if write {
		p.WriteGlobal(a, next)
	}
	lock.Release(p)
	// observe() raises the client's per-key floor, which is also what the
	// fast-path guard clamps to — read-your-writes falls out for free.
	c.observe(key, cur)
	if write {
		c.observe(key, next)
		return cur, next
	}
	return cur, 0
}

// put unconditionally advances the key's version.
func (c *client) put(p *core.Proc, key int) (mem.Word, mem.Word) {
	c.res.counters.Puts++
	return c.update(p, key, func(cur mem.Word) (mem.Word, bool) { return cur + 1, true })
}

// cas advances the version only if it still matches the client's last
// observation (optimistic concurrency against the whole population).
func (c *client) cas(p *core.Proc, key int, expect mem.Word) (mem.Word, mem.Word) {
	c.res.counters.CASes++
	read, wrote := c.update(p, key, func(cur mem.Word) (mem.Word, bool) {
		return cur + 1, cur == expect
	})
	if wrote == 0 {
		c.res.counters.CASFails++
	}
	return read, wrote
}

// Run executes the spec and checks the oracle. The returned error covers
// machine failures only; oracle violations are reported in Result.Oracle
// (and by Result.Check) so chaos sweeps can distinguish "the fabric killed
// the run" from "the service returned a non-sequentially-consistent
// answer". The machine comes from core's machine pool, in the state a
// fresh build leaves it, so runs of one machine shape reuse a few
// machines; it goes back once a successful run has been checked.
func Run(ctx context.Context, spec Spec, opts RunOptions) (*Result, error) {
	cfg, algo, err := spec.config(opts)
	if err != nil {
		return nil, err
	}
	m := core.GetMachine(cfg)
	res, err := runOn(ctx, m, spec, algo, opts)
	if err != nil {
		return nil, err
	}
	core.PutMachine(m)
	return res, nil
}

// config returns the machine configuration a run of the spec under opts
// takes and the spec's lock algorithm, or the spec's error.
func (s Spec) config(opts RunOptions) (core.Config, synczoo.LockAlgo, error) {
	if err := s.Validate(); err != nil {
		return core.Config{}, synczoo.LockAlgo{}, err
	}
	algo, err := synczoo.LockAlgoByKey(s.Lock)
	if err != nil {
		return core.Config{}, synczoo.LockAlgo{}, err
	}
	cfg := core.DefaultConfig(s.Procs)
	cfg.Protocol = algo.Proto
	cfg.Jitter = opts.Jitter
	cfg.Faults = opts.Faults
	cfg.SimWorkers = opts.SimWorkers
	cfg.IdealNetwork = opts.IdealNetwork
	if opts.Horizon > 0 {
		cfg.Horizon = opts.Horizon
	}
	return cfg, algo, nil
}

// runOn is Run on m, a machine in the state core.NewMachine builds for the
// configuration spec.config(opts) returns with algo.
func runOn(ctx context.Context, m *core.Machine, spec Spec, algo synczoo.LockAlgo, opts RunOptions) (*Result, error) {
	lay := spec.build(algo, m.Geometry())
	zipf := workload.NewZipf(spec.Keys, spec.Theta)
	cbl := algo.Proto == core.ProtoCBL

	perProc := make([]*procResult, spec.Procs)
	progs := make([]core.Program, spec.Procs)
	for i := 0; i < spec.Procs; i++ {
		i := i
		progs[i] = func(p *core.Proc) {
			res := &procResult{log: make([]opRec, 0, spec.Ops)}
			perProc[i] = res
			c := newClient(&spec, lay, cbl, res)
			ops := workload.NewStream(spec.Seed, uint64(i))
			arr := make([]*workload.Arrivals, spec.Sessions)
			next := make([]sim.Time, spec.Sessions)
			for s := range arr {
				arr[s] = workload.NewArrivals(spec.Arrival, spec.Seed,
					uint64(i)*65536+uint64(s))
				next[s] = arr[s].Next()
			}
			for n := 0; n < spec.Ops; n++ {
				// Serve the session with the earliest pending arrival
				// (ties break to the lowest session id — deterministic).
				s := 0
				for j := 1; j < spec.Sessions; j++ {
					if next[j] < next[s] {
						s = j
					}
				}
				t := next[s]
				if now := p.Now(); now < t {
					p.Think(t - now)
				}
				start := t
				if !spec.OpenLoop {
					// Closed loop: latency excludes the think time.
					start = p.Now()
				}
				key := zipf.Sample(ops)
				u := ops.Float64()
				var rec opRec
				switch {
				case u < spec.GetFrac:
					rec = opRec{kind: OpGet, key: key, read: c.get(p, key)}
				case u < spec.GetFrac+spec.PutFrac:
					r, w := c.put(p, key)
					rec = opRec{kind: OpPut, key: key, read: r, wrote: w}
				default:
					r, w := c.cas(p, key, c.last[key])
					rec = opRec{kind: OpCAS, key: key, read: r, wrote: w}
				}
				end := p.Now()
				res.lat[rec.kind].Observe(uint64(end - start))
				res.log = append(res.log, rec)
				res.counters.Ops++
				if spec.OpenLoop {
					// Open loop: the schedule does not wait for service.
					next[s] = t + arr[s].Next()
				} else {
					next[s] = end + arr[s].Next()
				}
			}
		}
	}

	simRes, err := m.RunContext(ctx, progs)
	if err != nil {
		return nil, fmt.Errorf("kvapp: %s p=%d seed=%d %s: %w",
			spec.Lock, spec.Procs, spec.Seed, opts.Faults, err)
	}

	out := &Result{Spec: spec, Sim: simRes}
	logs := make([][]opRec, spec.Procs)
	for i, pr := range perProc {
		out.Counters.add(pr.counters)
		for k := range pr.lat {
			out.Lat[k].Merge(&pr.lat[k])
			out.All.Merge(&pr.lat[k])
		}
		logs[i] = pr.log
	}
	// On the CBL machine every committed write was published home by the
	// releasing flush, so main memory holds each key's final version; the
	// WBI machine may legitimately leave the newest version dirty in the
	// last writer's cache, so the memory cross-check is CBL-only.
	var final func(key int) (mem.Word, bool)
	if cbl {
		final = func(key int) (mem.Word, bool) { return m.ReadMemory(lay.keyAddr[key]), true }
	}
	out.Oracle = checkOracle(spec.Keys, logs, final)
	return out, nil
}

// Summary renders the run one line per op kind plus the headline numbers.
func (r *Result) Summary() string {
	s := fmt.Sprintf("kv %s procs=%d keys=%d ops=%d: cycles=%d p50=%d p99=%d mean=%.0f thr=%.3f ops/kcycle oracle=%s\n",
		r.Spec.Lock, r.Spec.Procs, r.Spec.Keys, r.Ops, r.Sim.Cycles,
		r.P50(), r.P99(), r.Mean(), r.ThroughputOpsPerKCycle(), r.Oracle.Verdict())
	for k := OpGet; k < numOpKinds; k++ {
		h := &r.Lat[k]
		if h.Count() == 0 {
			continue
		}
		s += fmt.Sprintf("  %-3s n=%-6d p50=%-6d p99=%-6d mean=%.0f\n",
			k, h.Count(), h.Quantile(0.50), h.Quantile(0.99), h.Mean())
	}
	s += fmt.Sprintf("  fast=%d global=%d subs=%d evict=%d guard=%d casfail=%d rmr=%d\n",
		r.FastReads, r.GlobalReads, r.Subscribes, r.Unsubscribes, r.GuardHits, r.CASFails, r.Sim.RMR.Remote)
	return s
}
