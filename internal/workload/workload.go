// Package workload implements the paper's two simulation workload models
// (§5.2):
//
//   - the probabilistic sync model, after Archibald & Baer: a stream of
//     memory references with fixed shared-access, read, and hit ratios
//     (Table 4), punctuated by synchronization episodes — critical sections
//     or barriers per the lock ratio;
//   - the work-queue model: a dynamic-scheduling kernel in which all
//     processors draw tasks from a central queue protected by a lock,
//     execute them (possibly inserting new tasks), and finish with a
//     barrier. Queue accesses have a high shared ratio (0.5), task
//     execution a low one (0.03).
//
// Both models are expressed as core.Program values parameterized by a
// SyncKit, which supplies the machine-appropriate lock and barrier
// implementations (hardware CBL primitives, or WBI software spin locks with
// or without backoff). Grain size — the number of data references per task
// — selects the paper's fine/medium/coarse granularity of parallelism.
//
// Interpretation notes (the paper does not pin these down):
//
//   - "lock ratio 50%" (Table 4) is read as: half of the sync model's
//     synchronization episodes are lock/unlock critical sections, half are
//     barriers.
//   - Grain sizes are not given numerically; fine/medium/coarse default to
//     32/128/512 references per task.
package workload

import (
	"context"
	"fmt"
	"math/rand/v2"

	"ssmp/internal/core"
	"ssmp/internal/mem"
	"ssmp/internal/sim"
	"ssmp/internal/syncprim"
)

// Params holds the Table 4 simulation parameters.
type Params struct {
	// SharedRatioTask is the probability a task-execution reference
	// touches shared data (Table 4: 0.03).
	SharedRatioTask float64
	// SharedRatioQueue is the shared-access ratio during work-queue
	// manipulation (Table 4: 0.5).
	SharedRatioQueue float64
	// SharedBlocks is the number of shared memory blocks (Table 4: 32).
	SharedBlocks int
	// HitRatio is the private-reference cache hit ratio (Table 4: 0.95).
	HitRatio float64
	// ReadRatio is the fraction of data references that are reads
	// (Table 4: 0.85).
	ReadRatio float64
	// LockRatio is the fraction of synchronization episodes that are
	// critical sections rather than barriers (Table 4: 50%).
	LockRatio float64
	// Grain is the number of data references per task (granularity of
	// parallelism).
	Grain int
	// QueueRefs is the number of references per queue access in the
	// work-queue model.
	QueueRefs int
	// Locks is the number of distinct lock variables in the sync model.
	Locks int
	// CSRefs is the number of references inside a sync-model critical
	// section.
	CSRefs int
}

// Grain presets for the paper's granularity levels.
const (
	FineGrain   = 32
	MediumGrain = 128
	CoarseGrain = 512
)

// DefaultParams returns the Table 4 values with medium granularity.
func DefaultParams() Params {
	return Params{
		SharedRatioTask:  0.03,
		SharedRatioQueue: 0.5,
		SharedBlocks:     32,
		HitRatio:         0.95,
		ReadRatio:        0.85,
		LockRatio:        0.5,
		Grain:            MediumGrain,
		QueueRefs:        8,
		Locks:            4,
		CSRefs:           8,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"SharedRatioTask", p.SharedRatioTask},
		{"SharedRatioQueue", p.SharedRatioQueue},
		{"HitRatio", p.HitRatio},
		{"ReadRatio", p.ReadRatio},
		{"LockRatio", p.LockRatio},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("workload: %s = %v out of [0,1]", r.name, r.v)
		}
	}
	if p.SharedBlocks < 1 || p.Grain < 1 || p.QueueRefs < 1 || p.Locks < 1 || p.CSRefs < 0 {
		return fmt.Errorf("workload: counts must be positive: %+v", p)
	}
	return nil
}

// Layout fixes the simulated address map: shared data blocks, sync-model
// lock blocks, the work-queue lock, and barrier/auxiliary words. Locks get
// blocks of their own (the compiler's responsibility per §4.3).
type Layout struct {
	geom mem.Geometry
	p    Params
}

// NewLayout builds the address map for a machine geometry.
func NewLayout(geom mem.Geometry, p Params) Layout { return Layout{geom: geom, p: p} }

// SharedWord returns a word address inside shared block i (i in
// [0, SharedBlocks)); the blocks interleave across all memory modules.
func (l Layout) SharedWord(i, word int) mem.Addr {
	return l.geom.BaseAddr(mem.Block(i)) + mem.Addr(word%l.geom.BlockWords)
}

// LockAddr returns the address of sync-model lock i.
func (l Layout) LockAddr(i int) mem.Addr {
	return l.geom.BaseAddr(mem.Block(1024 + i))
}

// LockAux returns an auxiliary word block for lock i (ticket/serving pairs
// need two blocks).
func (l Layout) LockAux(i int) mem.Addr {
	return l.geom.BaseAddr(mem.Block(1024 + l.p.Locks + i))
}

// QueueLock returns the work-queue lock address.
func (l Layout) QueueLock() mem.Addr { return l.geom.BaseAddr(2048) }

// QueueAux returns the auxiliary block for the queue lock.
func (l Layout) QueueAux() mem.Addr { return l.geom.BaseAddr(2049) }

// BarrierAddr returns the barrier address (hardware) for episode ep.
func (l Layout) BarrierAddr(ep int) mem.Addr {
	return l.geom.BaseAddr(mem.Block(3072 + ep%64))
}

// BarrierCount and BarrierGen return the software barrier's words.
func (l Layout) BarrierCount() mem.Addr { return l.geom.BaseAddr(4096) }

// BarrierGen returns the software barrier's generation word.
func (l Layout) BarrierGen() mem.Addr { return l.geom.BaseAddr(4097) }

// SyncKit supplies machine-appropriate synchronization implementations.
type SyncKit struct {
	// Name labels the configuration in results ("CBL", "WBI",
	// "WBI-backoff").
	Name string
	// Lock returns the locker for lock index i.
	Lock func(i int) syncprim.Locker
	// QueueLock is the work-queue's lock.
	QueueLock syncprim.Locker
	// Barrier returns the barrier for all n processors.
	Barrier func(n int) syncprim.Barrier
}

// CBLKit builds the hardware synchronization kit for the paper's machine.
func CBLKit(l Layout, procs int) SyncKit {
	return SyncKit{
		Name:      "CBL",
		Lock:      func(i int) syncprim.Locker { return syncprim.CBLLock{Addr: l.LockAddr(i)} },
		QueueLock: syncprim.CBLLock{Addr: l.QueueLock()},
		Barrier: func(n int) syncprim.Barrier {
			return syncprim.HWBarrier{Addr: l.BarrierAddr(0), Participants: n}
		},
	}
}

// WBIKit builds the software synchronization kit for the WBI baseline;
// backoff selects exponential backoff on lock acquisition (the paper's
// Q-backoff configuration).
func WBIKit(l Layout, procs int, backoff bool) SyncKit {
	name := "WBI"
	mk := func(a mem.Addr) syncprim.Locker { return syncprim.TestAndSetLock{Addr: a} }
	if backoff {
		name = "WBI-backoff"
		mk = func(a mem.Addr) syncprim.Locker { return syncprim.BackoffLock{Addr: a} }
	}
	return SyncKit{
		Name:      name,
		Lock:      func(i int) syncprim.Locker { return mk(l.LockAddr(i)) },
		QueueLock: mk(l.QueueLock()),
		Barrier: func(n int) syncprim.Barrier {
			return syncprim.SWBarrier{CountAddr: l.BarrierCount(), GenAddr: l.BarrierGen(), Participants: n}
		},
	}
}

// refStream draws data references per the probabilistic model.
type refStream struct {
	rng    *rand.Rand
	p      Params
	layout Layout
}

// dataRef performs one reference with the given shared-access ratio.
func (r *refStream) dataRef(p *core.Proc, sharedRatio float64) {
	read := r.rng.Float64() < r.p.ReadRatio
	if r.rng.Float64() < sharedRatio {
		blk := r.rng.IntN(r.p.SharedBlocks)
		word := r.rng.IntN(r.layout.geom.BlockWords)
		a := r.layout.SharedWord(blk, word)
		if read {
			p.Read(a)
		} else {
			p.WriteGlobal(a, mem.Word(p.Now()))
		}
		return
	}
	hit := r.rng.Float64() < r.p.HitRatio
	p.PrivateRef(!read, hit)
}

// SyncModel returns one program per processor for the probabilistic sync
// workload: episodes synchronization episodes each, with grain-size
// task-execution references between them.
func SyncModel(procs, episodes int, p Params, layout Layout, kit SyncKit, seed uint64) []core.Program {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	progs := make([]core.Program, procs)
	for i := 0; i < procs; i++ {
		i := i
		progs[i] = func(pr *core.Proc) {
			rs := &refStream{rng: rand.New(rand.NewPCG(seed, uint64(i))), p: p, layout: layout}
			bar := kit.Barrier(procs)
			for ep := 0; ep < episodes; ep++ {
				// Task execution: grain references at the task
				// shared ratio.
				for k := 0; k < p.Grain; k++ {
					rs.dataRef(pr, p.SharedRatioTask)
				}
				// Synchronization episode: critical section or
				// barrier per the lock ratio. Barriers must be
				// a collective decision, so the coin is drawn
				// from an episode-indexed stream shared by all
				// processors.
				if episodeIsLock(seed, ep, p.LockRatio) {
					l := kit.Lock(rs.rng.IntN(p.Locks))
					l.Acquire(pr)
					for k := 0; k < p.CSRefs; k++ {
						rs.dataRef(pr, p.SharedRatioQueue)
					}
					l.Release(pr)
				} else {
					bar.Wait(pr)
				}
			}
		}
	}
	return progs
}

// episodeIsLock decides episode kind identically on every processor.
func episodeIsLock(seed uint64, ep int, lockRatio float64) bool {
	r := rand.New(rand.NewPCG(seed^0x9E3779B97F4A7C15, uint64(ep)))
	return r.Float64() < lockRatio
}

// QueueStats reports what a work-queue run did.
type QueueStats struct {
	TasksExecuted int
	Spawned       int
}

// WorkQueue returns one program per processor for the work-queue model:
// tasks total tasks are drawn from a central queue under kit.QueueLock;
// each task executes grain references (shared ratio 0.03) and with
// spawnProb inserts a new task; processors finish at a barrier. The
// returned stats are valid after the machine run completes.
func WorkQueue(procs, tasks int, spawnProb float64, p Params, layout Layout, kit SyncKit, seed uint64) ([]core.Program, *QueueStats) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if spawnProb >= 1 {
		panic("workload: spawnProb must be < 1")
	}
	stats := &QueueStats{}
	remaining := tasks // guarded by the simulated queue lock
	progs := make([]core.Program, procs)
	for i := 0; i < procs; i++ {
		i := i
		progs[i] = func(pr *core.Proc) {
			rs := &refStream{rng: rand.New(rand.NewPCG(seed, uint64(i)+1000)), p: p, layout: layout}
			bar := kit.Barrier(procs)
			for {
				// Dequeue under the queue lock: queue
				// manipulation references at the high shared
				// ratio.
				kit.QueueLock.Acquire(pr)
				for k := 0; k < p.QueueRefs; k++ {
					rs.dataRef(pr, p.SharedRatioQueue)
				}
				got := remaining > 0
				if got {
					remaining--
				}
				kit.QueueLock.Release(pr)
				if !got {
					break
				}
				stats.TasksExecuted++
				// Execute the task.
				for k := 0; k < p.Grain; k++ {
					rs.dataRef(pr, p.SharedRatioTask)
				}
				// Possibly spawn a successor task.
				if rs.rng.Float64() < spawnProb {
					kit.QueueLock.Acquire(pr)
					for k := 0; k < p.QueueRefs; k++ {
						rs.dataRef(pr, p.SharedRatioQueue)
					}
					remaining++
					stats.Spawned++
					kit.QueueLock.Release(pr)
				}
			}
			bar.Wait(pr)
		}
	}
	return progs, stats
}

// Job is one run of the sync or the work-queue model, short of the machine
// it runs on.
type Job struct {
	// Queue selects the work-queue model; false runs the sync model.
	Queue bool
	// Params are the Table 4 parameters, grain included.
	Params Params
	// Episodes is the sync model's episodes per processor.
	Episodes int
	// Tasks and SpawnProb are the work-queue model's initial task count
	// and task-spawn probability.
	Tasks     int
	SpawnProb float64
	// Backoff selects exponential backoff for the WBI machine's software
	// locks.
	Backoff bool
	// Seed drives all workload randomness.
	Seed uint64
}

// Programs lays the job out on cfg's machine and returns one program per
// node, with the sync kit they use: the hardware CBL lock and barrier on
// the CBL machine, software locks and barrier built on RMW on the WBI one.
func (j Job) Programs(cfg core.Config) ([]core.Program, SyncKit) {
	layout := NewLayout(mem.Geometry{BlockWords: cfg.BlockWords, Nodes: cfg.Nodes}, j.Params)
	var kit SyncKit
	if cfg.Protocol == core.ProtoCBL {
		kit = CBLKit(layout, cfg.Nodes)
	} else {
		kit = WBIKit(layout, cfg.Nodes, j.Backoff)
	}
	if !j.Queue {
		return SyncModel(cfg.Nodes, j.Episodes, j.Params, layout, kit, j.Seed), kit
	}
	progs, _ := WorkQueue(cfg.Nodes, j.Tasks, j.SpawnProb, j.Params, layout, kit, j.Seed)
	return progs, kit
}

// Run is a convenience wrapper: build a machine from cfg, run the programs,
// and return the result.
func Run(cfg core.Config, progs []core.Program) (core.Result, error) {
	return RunContext(context.Background(), cfg, progs)
}

// RunContext is Run with cancellation (see core.Machine.RunContext).
func RunContext(ctx context.Context, cfg core.Config, progs []core.Program) (core.Result, error) {
	m := core.NewMachine(cfg)
	return m.RunContext(ctx, progs)
}

// Horizon suggests a simulation horizon generous enough for the given work.
func Horizon(procs, refs int) sim.Time {
	h := sim.Time(refs) * 1000 * sim.Time(procs)
	if h < 10_000_000 {
		h = 10_000_000
	}
	return h
}
