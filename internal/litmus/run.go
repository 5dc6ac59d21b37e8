package litmus

// Running a test on the concrete machine, and the seed sweep that
// cross-validates the simulator against the axiomatic model.

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"ssmp/internal/bccheck"
	"ssmp/internal/core"
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

// runSim executes the test once on a fresh machine with the given jitter
// seed (0 = the canonical deterministic schedule) and fault configuration
// (zero = a reliable fabric) and returns the outcome in canonical syntax
// plus the run's fault counters. With trace set, the run records a history
// and the returned graph renders it.
func (c *compiled) runSim(seed uint64, faults network.FaultConfig, trace bool) (string, *bccheck.Graph, metrics.FaultCounters, error) {
	nproc := len(c.prog)
	nodes := 2
	for nodes < nproc {
		nodes <<= 1
	}
	cfg := core.DefaultConfig(nodes)
	cfg.Jitter = seed
	cfg.Faults = faults
	m := core.NewMachine(cfg)
	var graph *bccheck.Graph
	rec := m.EnableHistory()
	for n, v := range c.t.Init {
		m.WriteMemory(dataAddr(c.locOf[n]), mem.Word(v))
	}
	regs := make([][]uint64, nproc)
	progs := make([]core.Program, nodes)
	for p := 0; p < nproc; p++ {
		p := p
		progs[p] = func(pr *core.Proc) {
			for _, in := range c.prog[p] {
				switch in.Op {
				case bccheck.OpRead:
					regs[p] = append(regs[p], uint64(pr.Read(dataAddr(in.Loc))))
				case bccheck.OpWrite:
					pr.Write(dataAddr(in.Loc), mem.Word(in.Val))
				case bccheck.OpReadGlobal:
					regs[p] = append(regs[p], uint64(pr.ReadGlobal(dataAddr(in.Loc))))
				case bccheck.OpWriteGlobal:
					pr.WriteGlobal(dataAddr(in.Loc), mem.Word(in.Val))
				case bccheck.OpReadUpdate:
					regs[p] = append(regs[p], uint64(pr.ReadUpdate(dataAddr(in.Loc))))
				case bccheck.OpResetUpdate:
					pr.ResetUpdate(dataAddr(in.Loc))
				case bccheck.OpFlush:
					pr.FlushBuffer()
				case bccheck.OpReadLock:
					pr.ReadLock(dataAddr(in.Loc))
				case bccheck.OpWriteLock:
					pr.WriteLock(dataAddr(in.Loc))
				case bccheck.OpUnlock:
					pr.Unlock(dataAddr(in.Loc))
				case bccheck.OpBarrier:
					pr.Barrier(barAddr(in.Loc.Block), nproc)
				}
			}
		}
	}
	res, err := m.Run(progs)
	if err != nil {
		// The seed and fault config make the failure reproducible from the
		// message alone.
		return "", nil, metrics.FaultCounters{}, fmt.Errorf("litmus %s: jitter seed %d, %s: %w",
			c.t.Name, seed, faults, err)
	}
	o := bccheck.Outcome{Regs: regs}
	for _, n := range c.t.Observe {
		o.Mem = append(o.Mem, uint64(m.ReadMemory(dataAddr(c.locOf[n]))))
	}
	if trace {
		graph = rec.Graph(machineBlockWords)
		graph.Names = c.opts.LocName
	}
	return c.format(o), graph, res.Faults, nil
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

// TraceSim is RunSim with history recording; the returned graph is the
// run's execution graph (for explaining a violation).
func (t *Test) TraceSim(seed uint64) (string, *bccheck.Graph, error) {
	c, err := t.compile()
	if err != nil {
		return "", nil, err
	}
	out, graph, _, err := c.runSim(seed, network.FaultConfig{}, true)
	return out, graph, err
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
// assertions.
func Run(t *Test, seeds []uint64) (*Report, error) {
	return RunTuned(t, seeds, bccheck.Tuning{})
}

// RunTuned is Run with explicit exploration-engine tuning (POR or
// symmetry off). Tuning never changes verdicts, only cost.
func RunTuned(t *Test, seeds []uint64, tune bccheck.Tuning) (*Report, error) {
	return runSweep(t, seeds, tune, ChaosConfig{})
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
// memory model. A seed of 0 runs the canonical fault-free schedule.
func RunChaos(t *Test, seeds []uint64, chaos ChaosConfig) (*Report, error) {
	return runSweep(t, seeds, bccheck.Tuning{}, chaos)
}

func runSweep(t *Test, seeds []uint64, tune bccheck.Tuning, chaos ChaosConfig) (*Report, error) {
	c, err := t.compile()
	if err != nil {
		return nil, err
	}
	opts := c.opts
	opts.Tuning = tune
	enumStart := time.Now()
	res, err := bccheck.Enumerate(c.prog, opts)
	if err != nil {
		return nil, fmt.Errorf("litmus %s: %w", t.Name, err)
	}
	allowed := map[string]bool{}
	r := &Report{Name: t.Name, Observed: map[string][]uint64{}, States: res.States,
		Pruned: res.Pruned, EnumNS: int64(time.Since(enumStart)), Seeds: len(seeds)}
	for _, o := range res.Outcomes {
		key := c.format(o)
		allowed[key] = true
		r.Allowed = append(r.Allowed, key)
	}
	sort.Strings(r.Allowed)

	injecting := chaos.Rates != (network.FaultRates{})
	if injecting {
		r.Faults = &metrics.FaultCounters{}
	}
	for _, seed := range seeds {
		var faults network.FaultConfig
		if injecting {
			faults = network.FaultConfig{Seed: seed, Rates: chaos.Rates, DelayMax: chaos.DelayMax}
			if r.FaultConfig == "" && seed != 0 {
				r.FaultConfig = faults.String()
			}
		}
		out, _, fc, err := c.runSim(seed, faults, false)
		if err != nil {
			return nil, err
		}
		if r.Faults != nil {
			r.Faults.Add(fc)
		}
		r.Observed[out] = append(r.Observed[out], seed)
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
// outcome, its execution graph, and the allowed set it escaped.
func ExplainViolation(t *Test, r *Report, outcome string) (string, error) {
	seeds, ok := r.Observed[outcome]
	if !ok || len(seeds) == 0 {
		return "", fmt.Errorf("litmus %s: outcome %q was not observed", t.Name, outcome)
	}
	_, graph, err := t.TraceSim(seeds[0])
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "test %s, seed %d produced %q\n", t.Name, seeds[0], outcome)
	fmt.Fprintf(&b, "allowed set (%d outcomes):\n", len(r.Allowed))
	for _, a := range r.Allowed {
		fmt.Fprintf(&b, "  %s\n", a)
	}
	b.WriteString("execution graph of the run:\n")
	b.WriteString(graph.String())
	return b.String(), nil
}
