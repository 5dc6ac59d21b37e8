package harness

import (
	"fmt"
	"strings"

	"ssmp/internal/analytic"
	"ssmp/internal/core"
	"ssmp/internal/fan"
	"ssmp/internal/mem"
	"ssmp/internal/msg"
	"ssmp/internal/syncprim"
	"ssmp/internal/workload"
)

// Table2Measured holds per-scheme measured traffic for the linear solver,
// normalized per processor per iteration, next to the analytic prediction.
type Table2Measured struct {
	Scheme string
	// Blocks, Words, Invs, Controls are measured message counts per
	// processor per iteration.
	Blocks, Words, Invs, Controls float64
	// Analytic is the model's read+write traffic for the same scheme (in
	// weighted message-cost units).
	Analytic float64
	// Residual is the solver's final residual (solution correctness).
	Residual float64
}

// Table2Sim runs the linear solver on the three schemes of Table 2 and
// reports measured traffic next to the closed-form model.
func (o Options) Table2Sim(procs, iters int) ([]Table2Measured, error) {
	type scheme struct {
		name       string
		readUpdate bool
		colocate   bool
	}
	schemes := []scheme{
		{"read-update", true, true},
		{"inv-I", false, true},
		{"inv-II", false, false},
	}
	costs := analytic.DefaultClassCosts()
	rows := analytic.Table2(procs, 4)
	out := make([]Table2Measured, len(schemes))
	err := fan.Run(len(schemes), o.Parallelism, func(si int) error {
		s := schemes[si]
		cfg := core.DefaultConfig(procs)
		if !s.readUpdate {
			cfg.Protocol = core.ProtoWBI
		}
		m := core.NewMachine(cfg)
		ls := &workload.LinSolver{N: procs, Iters: iters, Colocate: s.colocate, ReadUpdate: s.readUpdate}
		if _, err := m.RunContext(o.context(), ls.Programs(m.Geometry())); err != nil {
			return fmt.Errorf("harness: Table 2 %s: %w", s.name, err)
		}
		coll := m.Messages()
		denom := float64(procs * iters)
		row := rows[si]
		out[si] = Table2Measured{
			Scheme:   s.name,
			Blocks:   float64(coll.Class(msg.BlockXfer)) / denom,
			Words:    float64(coll.Class(msg.WordXfer)) / denom,
			Invs:     float64(coll.Class(msg.Invalidation)) / denom,
			Controls: float64(coll.Class(msg.Control)) / denom,
			Analytic: row.Write.Eval(costs) + row.Read.Eval(costs),
			Residual: ls.Verify(m),
		}
		o.logf("  table2 %s: %s", s.name, coll)
		return nil
	})
	return out, err
}

// FormatTable2Sim renders the measured-vs-analytic comparison.
func FormatTable2Sim(procs, iters int, rows []Table2Measured) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 (simulated, n=%d, B=4, %d iterations; per processor per iteration)\n", procs, iters)
	fmt.Fprintf(&b, "%-12s %8s %8s %8s %8s %10s %12s\n",
		"scheme", "C_B", "C_W", "C_I", "C_R", "analytic", "residual")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8.2f %8.2f %8.2f %8.2f %10.1f %12.2e\n",
			r.Scheme, r.Blocks, r.Words, r.Invs, r.Controls, r.Analytic, r.Residual)
	}
	return b.String()
}

// Table3Measured is one measured synchronization scenario.
type Table3Measured struct {
	Scenario analytic.Scenario
	Scheme   string // "WBI" or "CBL"
	// Messages is the measured message count; Cycles the measured time.
	Messages uint64
	Cycles   uint64
	// Model is the paper's closed-form prediction.
	Model analytic.Cost
}

// Table3Sim measures the four Table 3 scenarios on the simulator, each on
// the WBI and then the CBL machine: parallel lock (n simultaneous
// requesters), serial lock (one uncontended acquire/release), barrier
// request and barrier notify (one full barrier episode, with
// per-processor and total accounting respectively).
func (o Options) Table3Sim(procs int) ([]Table3Measured, error) {
	params := analytic.DefaultSyncParams(procs)
	scenarios := analytic.Scenarios()
	schemes := []string{"WBI", "CBL"}
	out := make([]Table3Measured, len(scenarios)*len(schemes))
	err := fan.Run(len(out), o.Parallelism, func(i int) error {
		s, scheme := scenarios[i/len(schemes)], schemes[i%len(schemes)]
		cfg := core.DefaultConfig(procs)
		model := analytic.CBL(s, params)
		if scheme == "WBI" {
			cfg.Protocol = core.ProtoWBI
			model = analytic.WBI(s, params)
		}
		res, err := core.NewMachine(cfg).RunContext(o.context(), scenarioPrograms(s, cfg.Protocol, procs))
		if err != nil {
			return fmt.Errorf("harness: Table 3 %s %s: %w", s, scheme, err)
		}
		msgs := res.Messages
		if s == analytic.BarrierRequest {
			// Barrier request (per-processor cost) and notify
			// (release fan-out) are two accountings of the same
			// episode: the request row reports it per processor.
			msgs /= uint64(procs)
		}
		out[i] = Table3Measured{Scenario: s, Scheme: scheme, Messages: msgs, Cycles: uint64(res.Cycles), Model: model}
		o.logf("  table3 %s %s: %d msgs, %d cycles", s, scheme, msgs, res.Cycles)
		return nil
	})
	return out, err
}

// scenarioPrograms returns the programs of one Table 3 scenario on proto's
// machine: the hardware CBL lock and barrier, or a test-and-set lock and
// the software barrier on WBI. A lock scenario's critical section is 50
// cycles (t_cs).
func scenarioPrograms(s analytic.Scenario, proto core.Protocol, procs int) []core.Program {
	var lock syncprim.Locker = syncprim.TestAndSetLock{Addr: mem.Addr(4 * 100)}
	var bar syncprim.Barrier = syncprim.SWBarrier{CountAddr: mem.Addr(4 * 200), GenAddr: mem.Addr(4 * 201), Participants: procs}
	if proto == core.ProtoCBL {
		lock = syncprim.CBLLock{Addr: mem.Addr(4 * 100)}
		bar = syncprim.HWBarrier{Addr: mem.Addr(4 * 202), Participants: procs}
	}
	progs := make([]core.Program, procs)
	for i := range progs {
		switch {
		case s == analytic.SerialLock && i > 0:
			// One uncontended requester; the other nodes stay idle.
		case s == analytic.ParallelLock || s == analytic.SerialLock:
			progs[i] = func(p *core.Proc) {
				lock.Acquire(p)
				p.Think(50)
				lock.Release(p)
			}
		default:
			progs[i] = func(p *core.Proc) { bar.Wait(p) }
		}
	}
	return progs
}

// FormatTable3Sim renders the measured-vs-model comparison.
func FormatTable3Sim(procs int, rows []Table3Measured) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3 (simulated, n=%d)\n", procs)
	fmt.Fprintf(&b, "%-16s %-6s %12s %12s %12s %12s\n",
		"scenario", "scheme", "msgs", "model msgs", "cycles", "model time")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %-6s %12d %12.0f %12d %12.0f\n",
			r.Scenario, r.Scheme, r.Messages, r.Model.Messages, r.Cycles, r.Model.Time)
	}
	return b.String()
}
