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
func (o Options) Table2Sim(procs, iters int) []Table2Measured {
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
	fan.Run(len(schemes), o.Parallelism, func(si int) error {
		s := schemes[si]
		cfg := core.DefaultConfig(procs)
		if !s.readUpdate {
			cfg.Protocol = core.ProtoWBI
		}
		m := core.NewMachine(cfg)
		ls := &workload.LinSolver{N: procs, Iters: iters, Colocate: s.colocate, ReadUpdate: s.readUpdate}
		if _, err := m.Run(ls.Programs(m.Geometry())); err != nil {
			panic(fmt.Sprintf("harness: Table 2 %s: %v", s.name, err))
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
	return out
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

// Table3Sim measures the four Table 3 scenarios on the simulator:
// parallel lock (n simultaneous requesters), serial lock (one uncontended
// acquire/release), barrier request and barrier notify (one full barrier
// episode, with per-processor and total accounting respectively).
func (o Options) Table3Sim(procs int) []Table3Measured {
	params := analytic.DefaultSyncParams(procs)

	// measure only queues the scenario; the queued jobs fan out across the
	// worker pool at the end, each on its own machine, and land in
	// declaration order.
	type job struct {
		s      analytic.Scenario
		scheme string
		model  analytic.Cost
		run    func(cfg core.Config) (uint64, uint64)
	}
	var jobs []job
	measure := func(s analytic.Scenario, scheme string, model analytic.Cost, run func(cfg core.Config) (uint64, uint64)) {
		jobs = append(jobs, job{s, scheme, model, run})
	}

	lockAddr := mem.Addr(4 * 100)

	parallelLock := func(mk func(cfg core.Config) syncprim.Locker) func(core.Config) (uint64, uint64) {
		return func(cfg core.Config) (uint64, uint64) {
			m := core.NewMachine(cfg)
			l := mk(cfg)
			progs := make([]core.Program, procs)
			for i := 0; i < procs; i++ {
				progs[i] = func(p *core.Proc) {
					l.Acquire(p)
					p.Think(50) // t_cs
					l.Release(p)
				}
			}
			res, err := m.Run(progs)
			if err != nil {
				panic(err)
			}
			return res.Messages, uint64(res.Cycles)
		}
	}
	measure(analytic.ParallelLock, "WBI", analytic.WBI(analytic.ParallelLock, params),
		parallelLock(func(core.Config) syncprim.Locker { return syncprim.TestAndSetLock{Addr: lockAddr} }))
	measure(analytic.ParallelLock, "CBL", analytic.CBL(analytic.ParallelLock, params),
		parallelLock(func(core.Config) syncprim.Locker { return syncprim.CBLLock{Addr: lockAddr} }))

	serialLock := func(mk func() syncprim.Locker) func(core.Config) (uint64, uint64) {
		return func(cfg core.Config) (uint64, uint64) {
			m := core.NewMachine(cfg)
			l := mk()
			progs := make([]core.Program, procs)
			progs[0] = func(p *core.Proc) {
				l.Acquire(p)
				p.Think(50)
				l.Release(p)
			}
			res, err := m.Run(progs)
			if err != nil {
				panic(err)
			}
			return res.Messages, uint64(res.Cycles)
		}
	}
	measure(analytic.SerialLock, "WBI", analytic.WBI(analytic.SerialLock, params),
		serialLock(func() syncprim.Locker { return syncprim.TestAndSetLock{Addr: lockAddr} }))
	measure(analytic.SerialLock, "CBL", analytic.CBL(analytic.SerialLock, params),
		serialLock(func() syncprim.Locker { return syncprim.CBLLock{Addr: lockAddr} }))

	barrier := func(mk func() syncprim.Barrier) func(core.Config) (uint64, uint64) {
		return func(cfg core.Config) (uint64, uint64) {
			m := core.NewMachine(cfg)
			b := mk()
			progs := make([]core.Program, procs)
			for i := 0; i < procs; i++ {
				progs[i] = func(p *core.Proc) { b.Wait(p) }
			}
			res, err := m.Run(progs)
			if err != nil {
				panic(err)
			}
			return res.Messages, uint64(res.Cycles)
		}
	}
	// Barrier request (per-processor cost) and notify (release fan-out)
	// are two accountings of the same episode; we report the episode under
	// "barrier request" divided per processor and the total under
	// "barrier notify".
	count, gen := mem.Addr(4*200), mem.Addr(4*201)
	wbiBarrier := func() syncprim.Barrier {
		return syncprim.SWBarrier{CountAddr: count, GenAddr: gen, Participants: procs}
	}
	cblBarrier := func() syncprim.Barrier {
		return syncprim.HWBarrier{Addr: mem.Addr(4 * 202), Participants: procs}
	}
	reqPerProc := func(run func(core.Config) (uint64, uint64)) func(core.Config) (uint64, uint64) {
		return func(cfg core.Config) (uint64, uint64) {
			msgs, cyc := run(cfg)
			return msgs / uint64(procs), cyc
		}
	}
	measure(analytic.BarrierRequest, "WBI", analytic.WBI(analytic.BarrierRequest, params), reqPerProc(barrier(wbiBarrier)))
	measure(analytic.BarrierRequest, "CBL", analytic.CBL(analytic.BarrierRequest, params), reqPerProc(barrier(cblBarrier)))
	measure(analytic.BarrierNotify, "WBI", analytic.WBI(analytic.BarrierNotify, params), barrier(wbiBarrier))
	measure(analytic.BarrierNotify, "CBL", analytic.CBL(analytic.BarrierNotify, params), barrier(cblBarrier))

	out := make([]Table3Measured, len(jobs))
	fan.Run(len(jobs), o.Parallelism, func(i int) error {
		j := jobs[i]
		cfg := core.DefaultConfig(procs)
		if j.scheme == "WBI" {
			cfg.Protocol = core.ProtoWBI
		}
		msgs, cycles := j.run(cfg)
		out[i] = Table3Measured{Scenario: j.s, Scheme: j.scheme, Messages: msgs, Cycles: cycles, Model: j.model}
		o.logf("  table3 %s %s: %d msgs, %d cycles", j.s, j.scheme, msgs, cycles)
		return nil
	})
	return out
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
