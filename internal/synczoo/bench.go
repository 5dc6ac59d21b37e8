package synczoo

import (
	"context"
	"fmt"

	"ssmp/internal/core"
	"ssmp/internal/mem"
	"ssmp/internal/metrics"
	"ssmp/internal/network"
	"ssmp/internal/sim"
)

// LockBenchOptions parameterize one contention measurement of a lock
// algorithm.
type LockBenchOptions struct {
	// Procs is the processor count (a power of two >= 2); every processor
	// contends for the one lock.
	Procs int
	// Iters is the number of acquisitions per processor (default 8).
	Iters int
	// Crit and Delay are the cycles spent inside the critical section and
	// between acquisitions.
	Crit, Delay sim.Time
	// Jitter seeds schedule tie-breaking (0 = canonical schedule).
	Jitter uint64
	// Faults parameterizes the interconnect fault plane (zero = fault-free).
	Faults network.FaultConfig
}

// LockPoint is one measured point of the lock contention sweep. Every run
// doubles as a mutual-exclusion witness: the critical section performs a
// non-atomic read-think-write increment of the protected word, so any
// exclusion failure destroys increments and Final falls short of Want.
type LockPoint struct {
	Algo  string `json:"algo"`
	Procs int    `json:"procs"`
	Iters int    `json:"iters"`
	// Cycles is the completion time of the whole contention run.
	Cycles sim.Time `json:"cycles"`
	// Acquisitions counts the measured acquisitions (Procs * Iters; the
	// final verification acquisition is excluded).
	Acquisitions uint64 `json:"acquisitions"`
	// Final is the protected counter read under the lock after all workers
	// finished; Want is Procs*Iters.
	Final mem.Word `json:"final"`
	Want  mem.Word `json:"want"`
	// MutexViolations counts overlapping critical sections observed by the
	// host-side occupancy check (0 for a correct lock).
	MutexViolations int `json:"mutexViolations"`
	// RMR is the remote-memory-reference total snapshotted when the last
	// worker finished, before the verification acquisition.
	RMR metrics.RMRCounters `json:"rmr"`
	// Faults reports fault injection and recovery (zero when disabled).
	Faults metrics.FaultCounters `json:"faults"`
}

// RMRPerAcq is the headline metric: remote references per acquisition.
func (pt LockPoint) RMRPerAcq() float64 {
	if pt.Acquisitions == 0 {
		return 0
	}
	return float64(pt.RMR.Remote) / float64(pt.Acquisitions)
}

// AcqPerKCycle is the throughput metric: acquisitions per thousand cycles.
func (pt LockPoint) AcqPerKCycle() float64 {
	if pt.Cycles == 0 {
		return 0
	}
	return float64(pt.Acquisitions) * 1000 / float64(pt.Cycles)
}

// Verified reports whether the run upheld mutual exclusion.
func (pt LockPoint) Verified() bool {
	return pt.MutexViolations == 0 && pt.Final == pt.Want
}

// benchConfig builds the machine configuration an algorithm runs on.
func benchConfig(proto core.Protocol, procs int, jitter uint64, faults network.FaultConfig) core.Config {
	cfg := core.DefaultConfig(procs)
	cfg.Protocol = proto
	cfg.Jitter = jitter
	cfg.Faults = faults
	return cfg
}

// readShared reads a word of lock-protected or barrier-published data in
// the machine-appropriate, guaranteed-fresh way: under the CBL machine a
// plain READ of an unlocked block could serve a stale private copy, so
// fresh reads outside a held lock use READ-GLOBAL.
func readShared(p *core.Proc, proto core.Protocol, a mem.Addr) mem.Word {
	if proto == core.ProtoCBL && !p.HoldsLock(a) {
		return p.ReadGlobal(a)
	}
	return p.Read(a)
}

// RunLockBench runs the contention workload for one lock algorithm: every
// processor performs Iters lock-protected increments of the shared counter,
// and the last worker to finish snapshots the RMR account and verifies the
// counter under the lock.
func RunLockBench(algo LockAlgo, o LockBenchOptions) (LockPoint, error) {
	return RunLockBenchContext(context.Background(), algo, o)
}

// RunLockBenchContext is RunLockBench with cancellation: the simulated
// machine aborts at the next interrupt poll when ctx ends.
func RunLockBenchContext(ctx context.Context, algo LockAlgo, o LockBenchOptions) (LockPoint, error) {
	if o.Iters == 0 {
		o.Iters = 8
	}
	cfg := benchConfig(algo.Proto, o.Procs, o.Jitter, o.Faults)
	m := core.NewMachine(cfg)
	inst := algo.New(NewArena(m.Geometry()), o.Procs)

	pt := LockPoint{
		Algo: algo.Key, Procs: o.Procs, Iters: o.Iters,
		Acquisitions: uint64(o.Procs * o.Iters),
		Want:         mem.Word(o.Procs * o.Iters),
	}
	var inCS, finished int
	progs := make([]core.Program, o.Procs)
	for i := range progs {
		progs[i] = func(p *core.Proc) {
			for it := 0; it < o.Iters; it++ {
				inst.Lock.Acquire(p)
				inCS++
				if inCS != 1 {
					pt.MutexViolations++
				}
				v := p.Read(inst.Data)
				if o.Crit > 0 {
					p.Think(o.Crit)
				}
				p.Write(inst.Data, v+1)
				inCS--
				inst.Lock.Release(p)
				if o.Delay > 0 {
					p.Think(o.Delay)
				}
			}
			finished++
			if finished == o.Procs {
				// All measured work is done: snapshot the RMR account
				// before the verification traffic, then read the counter
				// under the lock (the grant carries fresh data on CBL; a
				// coherent read is fresh on WBI).
				pt.RMR = m.RMRs().Total()
				inst.Lock.Acquire(p)
				pt.Final = p.Read(inst.Data)
				inst.Lock.Release(p)
			}
		}
	}
	res, err := m.RunContext(ctx, progs)
	if err != nil {
		return pt, fmt.Errorf("synczoo: lock bench %s p=%d: %w", algo.Key, o.Procs, err)
	}
	pt.Cycles = res.Cycles
	pt.Faults = res.Faults
	return pt, nil
}

// BarrierBenchOptions parameterize one barrier measurement.
type BarrierBenchOptions struct {
	// Procs is the participant count (a power of two >= 2).
	Procs int
	// Episodes is the number of barrier episodes (default 4).
	Episodes int
	// Work is the cycles of computation per episode before arrival.
	Work sim.Time
	// Jitter seeds schedule tie-breaking; Faults enables the fault plane.
	Jitter uint64
	Faults network.FaultConfig
}

// BarrierPoint is one measured point of the barrier sweep. Every run
// doubles as a separation witness: each participant publishes its phase
// number before arriving and, after release, reads its neighbour's phase —
// which must have reached the current episode if the barrier actually
// separated the phases.
type BarrierPoint struct {
	Algo     string   `json:"algo"`
	Procs    int      `json:"procs"`
	Episodes int      `json:"episodes"`
	Cycles   sim.Time `json:"cycles"`
	// SeparationViolations counts neighbour phases observed behind the
	// episode number (0 for a correct barrier).
	SeparationViolations int `json:"separationViolations"`
	// RMR is the run's remote-memory-reference total (including the
	// witness's phase publishes and neighbour reads, identical work for
	// every algorithm).
	RMR    metrics.RMRCounters   `json:"rmr"`
	Faults metrics.FaultCounters `json:"faults"`
}

// RMRPerEpisode is remote references per participant per episode.
func (pt BarrierPoint) RMRPerEpisode() float64 {
	n := pt.Procs * pt.Episodes
	if n == 0 {
		return 0
	}
	return float64(pt.RMR.Remote) / float64(n)
}

// Verified reports whether every episode was separated.
func (pt BarrierPoint) Verified() bool { return pt.SeparationViolations == 0 }

// RunBarrierBench runs the episode workload for one barrier algorithm with
// the phase-separation witness.
func RunBarrierBench(algo BarrierAlgo, o BarrierBenchOptions) (BarrierPoint, error) {
	return RunBarrierBenchContext(context.Background(), algo, o)
}

// RunBarrierBenchContext is RunBarrierBench with cancellation.
func RunBarrierBenchContext(ctx context.Context, algo BarrierAlgo, o BarrierBenchOptions) (BarrierPoint, error) {
	if o.Episodes == 0 {
		o.Episodes = 4
	}
	cfg := benchConfig(algo.Proto, o.Procs, o.Jitter, o.Faults)
	m := core.NewMachine(cfg)
	arena := NewArena(m.Geometry())
	bar := algo.New(arena, o.Procs)
	// One phase word per participant, each in its own block.
	phase := make([]mem.Addr, o.Procs)
	for i := range phase {
		phase[i] = arena.Block()
	}

	pt := BarrierPoint{Algo: algo.Key, Procs: o.Procs, Episodes: o.Episodes}
	progs := make([]core.Program, o.Procs)
	for i := range progs {
		me := i
		progs[i] = func(p *core.Proc) {
			for e := 1; e <= o.Episodes; e++ {
				if o.Work > 0 {
					p.Think(o.Work)
				}
				p.WriteGlobal(phase[me], mem.Word(e))
				bar.Wait(p)
				if readShared(p, algo.Proto, phase[(me+1)%o.Procs]) < mem.Word(e) {
					pt.SeparationViolations++
				}
			}
		}
	}
	res, err := m.RunContext(ctx, progs)
	if err != nil {
		return pt, fmt.Errorf("synczoo: barrier bench %s p=%d: %w", algo.Key, o.Procs, err)
	}
	pt.Cycles = res.Cycles
	pt.RMR = res.RMR
	pt.Faults = res.Faults
	return pt, nil
}
