package litmus

// Running a test on the concrete machine, and the seed sweep that
// cross-validates the simulator against the axiomatic model.

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"time"

	"ssmp/internal/bccheck"
	"ssmp/internal/core"
	"ssmp/internal/fan"
	"ssmp/internal/history"
	"ssmp/internal/mem"
	"ssmp/internal/metrics"
	"ssmp/internal/network"
	"ssmp/internal/sim"
)

// addr maps a bccheck data location onto the machine's address space.
func dataAddr(l bccheck.Loc) mem.Addr {
	return mem.Addr(l.Block*machineBlockWords + l.Word)
}

// barAddr maps a barrier id onto an address far from any data block.
func barAddr(id int) mem.Addr {
	return mem.Addr((barrierBlockBase + id) * machineBlockWords)
}

// kindOf is the machine primitive of each model op. The model keeps its
// own op type so that it does not import the simulator it checks.
var kindOf = [...]core.OpKind{
	bccheck.OpRead:        core.OpRead,
	bccheck.OpWrite:       core.OpWrite,
	bccheck.OpReadGlobal:  core.OpReadGlobal,
	bccheck.OpWriteGlobal: core.OpWriteGlobal,
	bccheck.OpReadUpdate:  core.OpReadUpdate,
	bccheck.OpResetUpdate: core.OpResetUpdate,
	bccheck.OpFlush:       core.OpFlush,
	bccheck.OpReadLock:    core.OpReadLock,
	bccheck.OpWriteLock:   core.OpWriteLock,
	bccheck.OpUnlock:      core.OpUnlock,
	bccheck.OpBarrier:     core.OpBarrier,
}

// lower turns a compiled program into the primitive calls its simulator
// runs perform, one list per node of the machine that runs it (nil for a
// node no processor uses): a data op names its word, and a barrier its
// address with every processor as a participant.
func lower(prog bccheck.Program) [][]core.Op {
	ops := make([][]core.Op, machineNodes(len(prog)))
	for p, instrs := range prog {
		ops[p] = make([]core.Op, len(instrs))
		for i, in := range instrs {
			o := core.Op{Kind: kindOf[in.Op], Addr: dataAddr(in.Loc), Val: mem.Word(in.Val)}
			if in.Op == bccheck.OpBarrier {
				o.Addr, o.Val = barAddr(in.Loc.Block), mem.Word(len(prog))
			}
			ops[p][i] = o
		}
	}
	return ops
}

// lowered returns the test's primitive calls: the ones a sweep lowered
// once for all its runs, or a fresh lowering.
func (c *compiled) lowered() [][]core.Op {
	if c.ops != nil {
		return c.ops
	}
	return lower(c.prog)
}

// machines holds the machines runSim has finished with, one pool per
// node count (indexed by its log2), so a sweep's runs reuse a few machines
// instead of building one per seed. A reset machine runs exactly as a
// fresh one, so reuse changes no outcome.
var machines [bits.UintSize]sync.Pool

// machine returns a machine in the state core.NewMachine(cfg) builds: a
// pooled one reset to cfg, or a fresh build when the pool has none.
func machine(cfg core.Config) *core.Machine {
	if m, ok := machines[bits.TrailingZeros(uint(cfg.Nodes))].Get().(*core.Machine); ok {
		m.Reset(cfg)
		return m
	}
	return core.NewMachine(cfg)
}

// machineNodes is the fewest nodes (a power of two, at least 2) that seat
// procs processors.
func machineNodes(procs int) int {
	nodes := 2
	for nodes < procs {
		nodes <<= 1
	}
	return nodes
}

// simConfig is the machine a run of the test takes: the default machine
// with the fewest nodes that seats every processor, under the given jitter
// seed (0 = the canonical deterministic schedule) and fault configuration
// (zero = a reliable fabric).
func (c *compiled) simConfig(seed uint64, faults network.FaultConfig) core.Config {
	cfg := core.DefaultConfig(machineNodes(len(c.prog)))
	cfg.Jitter = seed
	cfg.Faults = faults
	return cfg
}

// runSim executes the test once, on a machine in the state
// core.NewMachine(c.simConfig(seed, faults)) builds, and returns the
// outcome in canonical syntax plus the run's fault counters. Only with
// trace set does the run record a history, which the returned graph
// renders. A machine whose run succeeded goes back to its pool.
func (c *compiled) runSim(seed uint64, faults network.FaultConfig, trace bool) (string, *bccheck.Graph, metrics.FaultCounters, error) {
	cfg := c.simConfig(seed, faults)
	m := machine(cfg)
	out, graph, res, err := c.simulate(m, trace)
	if err != nil {
		// The seed and fault config make the failure reproducible from the
		// message alone.
		return "", nil, metrics.FaultCounters{}, fmt.Errorf("litmus %s: jitter seed %d, %s: %w",
			c.t.Name, seed, faults, err)
	}
	machines[bits.TrailingZeros(uint(cfg.Nodes))].Put(m)
	return out, graph, res.Faults, nil
}

// simulate runs the test on m, a machine in its initial state, and returns
// the outcome in canonical syntax, the execution graph when trace is set,
// and the run's result. The event loop performs the test's calls itself
// (core.Machine.RunOps).
func (c *compiled) simulate(m *core.Machine, trace bool) (string, *bccheck.Graph, core.Result, error) {
	var rec *history.Recorder
	if trace {
		rec = m.EnableHistory()
	}
	c.writeInit(m)
	res, words, err := m.RunOps(c.lowered())
	if err != nil {
		return "", nil, core.Result{}, err
	}
	var graph *bccheck.Graph
	if trace {
		graph = rec.Graph(machineBlockWords)
		graph.Names = c.opts.LocName
	}
	return c.outcome(m, words), graph, res, nil
}

// writeInit writes the test's initial values into m's memory.
func (c *compiled) writeInit(m *core.Machine) {
	for n, v := range c.t.Init {
		m.WriteMemory(dataAddr(c.locOf[n]), mem.Word(v))
	}
}

// outcome renders the outcome of a run on m in canonical syntax, with
// words[p][i] the word processor p's call i returned: the reading calls'
// words fill the registers, and m's memory gives the observed locations.
func (c *compiled) outcome(m *core.Machine, words [][]mem.Word) string {
	var buf [128]byte
	b := buf[:0]
	for p, instrs := range c.prog {
		r := 0
		for i, in := range instrs {
			if in.Op.Reads() {
				b = c.appendReg(b, p, r, uint64(words[p][i]))
				r++
			}
		}
	}
	for i, n := range c.t.Observe {
		b = c.appendObserved(b, i, uint64(m.ReadMemory(dataAddr(c.locOf[n]))))
	}
	return string(b)
}

// RunSim executes the test once on the simulator under the given jitter
// seed and returns the canonical outcome.
func (t *Test) RunSim(seed uint64) (string, error) {
	c, err := t.compile()
	if err != nil {
		return "", err
	}
	out, _, _, err := c.runSim(seed, network.FaultConfig{}, false)
	return out, err
}

// Report is the result of cross-validating one test.
type Report struct {
	Name string `json:"name"`
	// Allowed is the axiomatic allowed set (canonical, sorted).
	Allowed []string `json:"allowed"`
	// Observed maps each simulator outcome to the jitter seeds that
	// produced it.
	Observed map[string][]uint64 `json:"observed"`
	// Violations are observed outcomes outside the allowed set — a
	// soundness failure of machine or model.
	Violations []string `json:"violations,omitempty"`
	// AssertFailures report must_allow entries missing from the allowed
	// set and must_forbid entries present in it.
	AssertFailures []string `json:"assert_failures,omitempty"`
	// Coverage is |observed ∩ allowed| / |allowed|.
	Coverage float64 `json:"coverage"`
	// States is the number of abstract states the enumerator visited.
	States int `json:"states"`
	// Pruned is the number of transitions partial-order reduction skipped.
	Pruned int `json:"pruned,omitempty"`
	// EnumNS is the wall-clock nanoseconds spent in the enumerator.
	EnumNS int64 `json:"enum_ns"`
	// Seeds is how many jitter seeds were swept.
	Seeds int `json:"seeds"`
	// FaultConfig describes the fault rates a chaos sweep injected
	// (empty for a fault-free sweep).
	FaultConfig string `json:"fault_config,omitempty"`
	// Faults aggregates the fault and recovery counters over a chaos
	// sweep's runs (nil for a fault-free sweep).
	Faults *metrics.FaultCounters `json:"faults,omitempty"`

	// chaos is the sweep's fault rates, from which ExplainViolation
	// rebuilds a run's fault plane.
	chaos ChaosConfig
}

// Ok reports whether the test passed: no violation and no assertion
// failure.
func (r *Report) Ok() bool { return len(r.Violations) == 0 && len(r.AssertFailures) == 0 }

// Summary renders a one-line result.
func (r *Report) Summary() string {
	status := "ok"
	if !r.Ok() {
		status = "FAIL"
	}
	s := fmt.Sprintf("%-22s %-4s allowed %2d, observed %2d, coverage %3.0f%% (%d seeds, %d states)",
		r.Name, status, len(r.Allowed), len(r.Observed), r.Coverage*100, r.Seeds, r.States)
	if r.Faults != nil {
		s += fmt.Sprintf(" [chaos: %d dropped, %d dup, %d delayed, %d retries]",
			r.Faults.Dropped, r.Faults.Duplicated, r.Faults.Delayed, r.Faults.Retries)
	}
	return s
}

// Seeds returns the default sweep seed list: 0 (the canonical schedule)
// through n-1.
func Seeds(n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = uint64(i)
	}
	return s
}

// Run cross-validates the test: it enumerates the axiomatic allowed set,
// sweeps the simulator across the given jitter seeds, and checks
// observed ⊆ allowed plus the test's own must_allow/must_forbid
// assertions. The enumeration and the seed runs share nothing they write,
// so they run on up to GOMAXPROCS goroutines; the report is a pure
// function of the test and the seed list, the same at any worker count.
func Run(t *Test, seeds []uint64) (*Report, error) {
	return RunTuned(t, seeds, bccheck.Tuning{})
}

// RunSerial is Run on the caller's goroutine alone, for callers that give
// each job one core, such as a daemon whose job workers already fill the
// CPUs. Its report is identical to Run's but for the wall-clock EnumNS.
func RunSerial(t *Test, seeds []uint64) (*Report, error) {
	return runSweep(t, seeds, bccheck.Tuning{}, ChaosConfig{}, 1)
}

// RunTuned is Run with explicit exploration-engine tuning (POR or
// symmetry off). Tuning never changes verdicts, only cost.
func RunTuned(t *Test, seeds []uint64, tune bccheck.Tuning) (*Report, error) {
	return runSweep(t, seeds, tune, ChaosConfig{}, 0)
}

// ChaosConfig parameterizes a chaos sweep: the fault rates injected into
// every run. The sweep's seed list supplies the fault seeds.
type ChaosConfig struct {
	// Rates are the per-link fault probabilities; zero rates make the
	// sweep equivalent to the fault-free RunTuned.
	Rates network.FaultRates
	// DelayMax bounds injected extra delays (0 = network.DefaultDelayMax).
	DelayMax sim.Time
}

// injecting reports whether the sweep injects faults at all.
func (ch ChaosConfig) injecting() bool { return ch.Rates != (network.FaultRates{}) }

// faults is the fault configuration of the run under the given seed: the
// zero (reliable) configuration unless the sweep injects faults.
func (ch ChaosConfig) faults(seed uint64) network.FaultConfig {
	if !ch.injecting() {
		return network.FaultConfig{}
	}
	return network.FaultConfig{Seed: seed, Rates: ch.Rates, DelayMax: ch.DelayMax}
}

// DefaultChaosRates are the soak's standard fault probabilities: frequent
// enough to exercise drop, duplicate and delay recovery in a handful of
// runs, rare enough that retransmission converges quickly.
func DefaultChaosRates() network.FaultRates {
	return network.FaultRates{Drop: 0.03, Dup: 0.03, Delay: 0.1}
}

// ChaosSeeds returns n nonzero fault seeds (1..n). Seed 0 would disable
// the fault plane, so the chaos sweep starts at 1.
func ChaosSeeds(n int) []uint64 {
	s := make([]uint64, n)
	for i := range s {
		s[i] = uint64(i + 1)
	}
	return s
}

// RunChaos cross-validates the test under fault injection: every sweep run
// uses its seed both as the schedule-jitter seed and as the fault-plane
// seed, so the sweep explores adversarial schedules and an adversarial
// fabric together. Every observed outcome must still be axiomatically
// allowed — the reliable transport must make faults invisible to the
// memory model. A seed of 0 runs the canonical fault-free schedule. Like
// Run, it spreads the sweep over up to GOMAXPROCS goroutines.
func RunChaos(t *Test, seeds []uint64, chaos ChaosConfig) (*Report, error) {
	return runSweep(t, seeds, bccheck.Tuning{}, chaos, 0)
}

// slots holds a sweep's results, each written by one job: the enumeration,
// and by seed index each run's outcome and fault counters.
type slots struct {
	res    *bccheck.Result
	enumNS int64
	outs   []string
	faults []metrics.FaultCounters // nil without fault injection
}

// enumerate computes the test's axiomatic allowed set and times it.
func (c *compiled) enumerate(tune bccheck.Tuning) (*bccheck.Result, int64, error) {
	opts := c.opts
	opts.Tuning = tune
	start := time.Now()
	res, err := bccheck.Enumerate(c.prog, opts)
	if err != nil {
		return nil, 0, fmt.Errorf("litmus %s: %w", c.t.Name, err)
	}
	return res, int64(time.Since(start)), nil
}

// sweep runs the enumeration as job 0 and the simulator under seeds[i-1]
// as job i, on up to workers goroutines (≤ 0: GOMAXPROCS). The jobs share
// only the read-only compiled test, lowered to its primitive calls once
// for every seed, and the lowest failing job's error is returned, so the
// enumeration's error comes first as in a serial loop.
func (c *compiled) sweep(seeds []uint64, tune bccheck.Tuning, chaos ChaosConfig, workers int) (sw slots, err error) {
	c.ops = lower(c.prog)
	sw.outs = make([]string, len(seeds))
	if chaos.injecting() {
		sw.faults = make([]metrics.FaultCounters, len(seeds))
	}
	err = fan.Run(len(seeds)+1, workers, func(i int) error {
		if i == 0 {
			var err error
			sw.res, sw.enumNS, err = c.enumerate(tune)
			return err
		}
		seed := seeds[i-1]
		out, _, fc, err := c.runSim(seed, chaos.faults(seed), false)
		if err != nil {
			return err
		}
		sw.outs[i-1] = out
		if sw.faults != nil {
			sw.faults[i-1] = fc
		}
		return nil
	})
	return sw, err
}

func runSweep(t *Test, seeds []uint64, tune bccheck.Tuning, chaos ChaosConfig, workers int) (*Report, error) {
	c, err := t.compile()
	if err != nil {
		return nil, err
	}
	var sw slots
	if len(seeds) == 0 {
		// Nothing to overlap the enumeration with: run it on the caller.
		sw.res, sw.enumNS, err = c.enumerate(tune)
	} else {
		sw, err = c.sweep(seeds, tune, chaos, workers)
	}
	if err != nil {
		return nil, err
	}

	// Assemble the report from the slots in seed order, so it is the same
	// whichever goroutine ran which job.
	allowed := map[string]bool{}
	r := &Report{Name: t.Name, Observed: map[string][]uint64{}, States: sw.res.States,
		Pruned: sw.res.Pruned, EnumNS: sw.enumNS, Seeds: len(seeds), chaos: chaos}
	for _, o := range sw.res.Outcomes {
		key := c.format(o)
		allowed[key] = true
		r.Allowed = append(r.Allowed, key)
	}
	sort.Strings(r.Allowed)

	if chaos.injecting() {
		r.Faults = &metrics.FaultCounters{}
	}
	for i, seed := range seeds {
		if r.Faults != nil {
			if r.FaultConfig == "" && seed != 0 {
				r.FaultConfig = chaos.faults(seed).String()
			}
			r.Faults.Add(sw.faults[i])
		}
		r.Observed[sw.outs[i]] = append(r.Observed[sw.outs[i]], seed)
	}
	covered := 0
	for out := range r.Observed {
		if allowed[out] {
			covered++
		} else {
			r.Violations = append(r.Violations, out)
		}
	}
	sort.Strings(r.Violations)
	if len(allowed) > 0 {
		r.Coverage = float64(covered) / float64(len(allowed))
	}

	for _, s := range t.MustAllow {
		if !allowed[s] {
			r.AssertFailures = append(r.AssertFailures, fmt.Sprintf("must_allow %q not in allowed set", s))
		}
	}
	for _, s := range t.MustForbid {
		if allowed[s] {
			r.AssertFailures = append(r.AssertFailures, fmt.Sprintf("must_forbid %q is in allowed set", s))
		}
	}
	if t.Allowed != nil && !equalKeys(t.Allowed, r.Allowed) {
		r.AssertFailures = append(r.AssertFailures,
			fmt.Sprintf("allowed-set snapshot mismatch: pinned %d outcomes, model admits %d", len(t.Allowed), len(r.Allowed)))
	}
	return r, nil
}

// ExplainViolation renders a violating run: the seed that produced the
// outcome, its execution graph, and the allowed set it escaped. It replays
// the first seed that produced the outcome under the sweep's own fault
// plane, so a chaos sweep's run is explained with the faults it suffered,
// and it fails if the replay does not reproduce the outcome.
func ExplainViolation(t *Test, r *Report, outcome string) (string, error) {
	seeds, ok := r.Observed[outcome]
	if !ok || len(seeds) == 0 {
		return "", fmt.Errorf("litmus %s: outcome %q was not observed", t.Name, outcome)
	}
	c, err := t.compile()
	if err != nil {
		return "", err
	}
	seed := seeds[0]
	faults := r.chaos.faults(seed)
	got, graph, _, err := c.runSim(seed, faults, true)
	if err != nil {
		return "", err
	}
	if got != outcome {
		return "", fmt.Errorf("litmus %s: seed %d, %s replayed to %q, not the observed %q",
			t.Name, seed, faults, got, outcome)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "test %s, seed %d produced %q\n", t.Name, seed, outcome)
	if r.chaos.injecting() {
		fmt.Fprintf(&b, "under %s\n", faults)
	}
	fmt.Fprintf(&b, "allowed set (%d outcomes):\n", len(r.Allowed))
	for _, a := range r.Allowed {
		fmt.Fprintf(&b, "  %s\n", a)
	}
	b.WriteString("execution graph of the run:\n")
	b.WriteString(graph.String())
	return b.String(), nil
}
