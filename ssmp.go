// Package ssmp is a simulator and library reproducing "Architectural
// Primitives for a Scalable Shared Memory Multiprocessor" (Lee &
// Ramachandran, SPAA 1991): the buffered-consistency memory model,
// reader-initiated update coherence, cache-based queued locks, the hardware
// barrier, and the write-back-invalidation baseline the paper evaluates
// against — plus the workload models, analytical cost models, and
// experiment harness that regenerate the paper's tables and figures.
//
// # Quick start
//
//	cfg := ssmp.DefaultConfig(8)        // 8-node CBL machine, Table 4 parameters
//	m := ssmp.NewMachine(cfg)
//	progs := make([]ssmp.Program, 8)
//	for i := range progs {
//		progs[i] = func(p *ssmp.Proc) {
//			p.WriteLock(100)            // hardware queued lock; grant carries the data
//			p.Write(100, p.Read(100)+1) // served from the lock cache
//			p.Unlock(100)               // CP-Synch: flushes the write buffer first
//		}
//	}
//	res, err := m.Run(progs)
//
// Each processor program runs as a coroutine of the deterministic event
// loop: primitives block until the modeled operation completes, and two
// runs with the same configuration and seed are bit-identical.
//
// The subpackage layout mirrors the machine: the simulation kernel, the Ω
// network, caches with per-word dirty bits, the write buffer, the
// reader-initiated update protocol, the cache-based lock protocol, the WBI
// baseline, and the workload/analytics/harness layers. This package
// re-exports the surface a downstream user needs.
package ssmp

import (
	"context"

	"ssmp/internal/analytic"
	"ssmp/internal/core"
	"ssmp/internal/harness"
	"ssmp/internal/history"
	"ssmp/internal/kvapp"
	"ssmp/internal/mem"
	"ssmp/internal/metrics"
	"ssmp/internal/network"
	"ssmp/internal/sim"
	"ssmp/internal/syncprim"
	"ssmp/internal/synczoo"
	"ssmp/internal/trace"
	"ssmp/internal/workload"
)

// Machine construction and execution.
type (
	// Machine is a simulated shared-memory multiprocessor.
	Machine = core.Machine
	// Config parameterizes a machine; see DefaultConfig.
	Config = core.Config
	// Proc is a processor handle exposing the paper's hardware
	// primitives (Table 1) as blocking calls.
	Proc = core.Proc
	// Program is the code one simulated processor executes.
	Program = core.Program
	// Result summarizes a completed run.
	Result = core.Result
	// Protocol selects the machine type (CBL or WBI).
	Protocol = core.Protocol
	// Consistency selects the memory model (BC or SC).
	Consistency = core.Consistency
	// ErrDeadlock reports processors blocked forever.
	ErrDeadlock = core.ErrDeadlock
)

// Machine types and memory models.
const (
	// ProtoCBL is the paper's machine: reader-initiated coherence,
	// cache-based locks, hardware barrier, write buffer.
	ProtoCBL = core.ProtoCBL
	// ProtoWBI is the write-back invalidation baseline.
	ProtoWBI = core.ProtoWBI
	// BC is buffered consistency (§2 of the paper).
	BC = core.BC
	// SC is sequential consistency.
	SC = core.SC
)

// Address-space types.
type (
	// Addr is a global word address.
	Addr = mem.Addr
	// Word is one memory word.
	Word = mem.Word
	// Time is the simulation clock in cycles.
	Time = sim.Time
)

// Interconnect topologies.
const (
	// TopOmega is the paper's multistage Ω network.
	TopOmega = network.TopOmega
	// TopMesh is a 2-D mesh with dimension-ordered routing.
	TopMesh = network.TopMesh
	// TopBus is a single shared bus (the paper's non-scalable baseline).
	TopBus = network.TopBus
)

// NewMachine builds a machine from a configuration.
func NewMachine(cfg Config) *Machine { return core.NewMachine(cfg) }

// DefaultConfig returns the paper's Table 4 configuration for the given
// node count (a power of two).
func DefaultConfig(nodes int) Config { return core.DefaultConfig(nodes) }

// Synchronization algorithms (package syncprim).
type (
	// Locker is a mutual-exclusion lock algorithm.
	Locker = syncprim.Locker
	// Barrier is a barrier algorithm.
	Barrier = syncprim.Barrier
	// CBLLock is the hardware queued lock (exclusive mode).
	CBLLock = syncprim.CBLLock
	// CBLReadLock is the hardware queued lock (shared mode).
	CBLReadLock = syncprim.CBLReadLock
	// TestAndSetLock is the WBI software spin lock.
	TestAndSetLock = syncprim.TestAndSetLock
	// BackoffLock is test-and-set with exponential backoff.
	BackoffLock = syncprim.BackoffLock
	// TicketLock is a fair FIFO software lock.
	TicketLock = syncprim.TicketLock
	// MCSLock is a software queue lock with local spinning (extension).
	MCSLock = syncprim.MCSLock
	// Region associates a lock with a multi-block data structure (§4.3).
	Region = syncprim.Region
	// HWBarrier is the CBL machine's hardware barrier.
	HWBarrier = syncprim.HWBarrier
	// SWBarrier is a software sense-reversing barrier.
	SWBarrier = syncprim.SWBarrier
	// Semaphore is a counting semaphore over a Locker.
	Semaphore = syncprim.Semaphore
)

// NewCBLSemaphore returns a semaphore for the CBL machine whose count is
// colocated with its lock's block (the §4.3 colocation rule), so the lock
// grant carries the count.
func NewCBLSemaphore(blockAddr Addr) Semaphore { return syncprim.NewCBLSemaphore(blockAddr) }

// Synchronization-algorithm zoo (package synczoo): every software lock and
// barrier over the Table-1 primitives plus the hardware CBL lock and
// barrier, behind one registry, with remote-memory-reference accounting.
type (
	// SyncArena hands out disjoint cache blocks for a sync algorithm's
	// shared variables.
	SyncArena = synczoo.Arena
	// LockAlgo is one registered lock algorithm (key, protocol, factory).
	LockAlgo = synczoo.LockAlgo
	// BarrierAlgo is one registered barrier algorithm.
	BarrierAlgo = synczoo.BarrierAlgo
	// LockInstance is a constructed lock plus its protected data word.
	LockInstance = synczoo.LockInstance
	// TTASLock is test-and-test-and-set with bounded exponential backoff.
	TTASLock = synczoo.TTASLock
	// DisseminationBarrier is the log-round software barrier.
	DisseminationBarrier = synczoo.DisseminationBarrier
	// TreeBarrier is the 4-ary MCS-style tree barrier.
	TreeBarrier = synczoo.TreeBarrier
	// LockBenchPoint is one measured contention-sweep point (a
	// mutual-exclusion witness rides along).
	LockBenchPoint = synczoo.LockPoint
	// BarrierBenchPoint is one measured barrier-sweep point.
	BarrierBenchPoint = synczoo.BarrierPoint
)

// NewSyncArena returns an arena allocating from a machine's geometry
// (Machine.Geometry), starting above the reserved block.
func NewSyncArena(g mem.Geometry) *SyncArena { return synczoo.NewArena(g) }

// LockAlgos returns every registered lock algorithm; BarrierAlgos every
// registered barrier algorithm.
func LockAlgos() []LockAlgo { return synczoo.LockAlgos() }

// BarrierAlgos returns the registered barrier algorithms.
func BarrierAlgos() []BarrierAlgo { return synczoo.BarrierAlgos() }

// RunLockBench measures one lock algorithm under contention and verifies
// mutual exclusion; RunBarrierBench does the same for barriers.
func RunLockBench(a LockAlgo, o synczoo.LockBenchOptions) (LockBenchPoint, error) {
	return synczoo.RunLockBench(a, o)
}

// RunBarrierBench measures one barrier algorithm and verifies episode
// separation.
func RunBarrierBench(a BarrierAlgo, o synczoo.BarrierBenchOptions) (BarrierBenchPoint, error) {
	return synczoo.RunBarrierBench(a, o)
}

// In-sim key-value service (package kvapp): a sharded store whose server
// loops run on the simulated multiprocessor, driven by a seeded synthetic
// client population, with a per-key sequential-consistency oracle checked
// after every run.
type (
	// KVSpec parameterizes the store and its client population.
	KVSpec = kvapp.Spec
	// KVRunOptions carry the machine-level knobs for a KV run.
	KVRunOptions = kvapp.RunOptions
	// KVResult is a completed KV run (latency, counters, oracle verdict).
	KVResult = kvapp.Result
)

// DefaultKVSpec returns the read-mostly default population for the given
// machine size.
func DefaultKVSpec(procs int) KVSpec { return kvapp.DefaultSpec(procs) }

// RunKV executes a key-value service run; check Result.Check() for the
// oracle's verdict.
func RunKV(ctx context.Context, s KVSpec, o KVRunOptions) (*KVResult, error) {
	return kvapp.Run(ctx, s, o)
}

// Workload models (package workload).
type (
	// WorkloadParams holds the Table 4 simulation parameters.
	WorkloadParams = workload.Params
	// Layout is the workloads' simulated address map.
	Layout = workload.Layout
	// SyncKit supplies machine-appropriate lock/barrier implementations.
	SyncKit = workload.SyncKit
	// LinSolver is the §4.1 linear-equation-solver workload.
	LinSolver = workload.LinSolver
	// WorkDAG is the dependency-honoring (non-FIFO) work-queue model.
	WorkDAG = workload.WorkDAG
	// QueueStats is the work-queue model's task accounting.
	QueueStats = workload.QueueStats
	// StencilSpec parameterizes the 1-D Jacobi scaling workload, the
	// nearest-neighbour kernel used to benchmark the parallel (PDES)
	// simulation engine at 512+ nodes.
	StencilSpec = workload.StencilSpec
)

// Workload grain presets (references per task).
const (
	FineGrain   = workload.FineGrain
	MediumGrain = workload.MediumGrain
	CoarseGrain = workload.CoarseGrain
)

// DefaultWorkloadParams returns the paper's Table 4 values.
func DefaultWorkloadParams() WorkloadParams { return workload.DefaultParams() }

// NewLayout builds the workload address map for a machine geometry.
func NewLayout(cfg Config, p WorkloadParams) Layout {
	return workload.NewLayout(mem.Geometry{BlockWords: cfg.BlockWords, Nodes: cfg.Nodes}, p)
}

// CBLKit returns the hardware synchronization kit for the CBL machine.
func CBLKit(l Layout, procs int) SyncKit { return workload.CBLKit(l, procs) }

// WBIKit returns the software synchronization kit for the WBI machine.
func WBIKit(l Layout, procs int, backoff bool) SyncKit {
	return workload.WBIKit(l, procs, backoff)
}

// SyncModel builds the probabilistic sync-model programs (§5.2).
func SyncModel(procs, episodes int, p WorkloadParams, l Layout, kit SyncKit, seed uint64) []Program {
	return workload.SyncModel(procs, episodes, p, l, kit, seed)
}

// WorkQueue builds the work-queue-model programs (§5.2).
func WorkQueue(procs, tasks int, spawnProb float64, p WorkloadParams, l Layout, kit SyncKit, seed uint64) ([]Program, *workload.QueueStats) {
	return workload.WorkQueue(procs, tasks, spawnProb, p, l, kit, seed)
}

// Experiments (package harness).
type (
	// ExperimentOptions parameterize the figure/table sweeps.
	ExperimentOptions = harness.Options
	// FigureResult is one reproduced figure.
	FigureResult = harness.Figure
)

// DefaultExperimentOptions returns the committed experiment sweep.
func DefaultExperimentOptions() ExperimentOptions { return harness.DefaultOptions() }

// Analytical models (package analytic).
type (
	// SyncParams are Table 3's time parameters.
	SyncParams = analytic.SyncParams
	// SyncScenario names a Table 3 row.
	SyncScenario = analytic.Scenario
	// SyncCost is one Table 3 cell.
	SyncCost = analytic.Cost
	// ClassCosts weight Table 2's message classes.
	ClassCosts = analytic.ClassCosts
)

// Table2Analytic returns the paper's Table 2 model.
func Table2Analytic(n, B int) []analytic.Table2Row { return analytic.Table2(n, B) }

// Table3WBI and Table3CBL return the paper's Table 3 models.
func Table3WBI(s SyncScenario, p SyncParams) SyncCost { return analytic.WBI(s, p) }

// Table3CBL returns the CBL column of Table 3.
func Table3CBL(s SyncScenario, p SyncParams) SyncCost { return analytic.CBL(s, p) }

// Traces (package trace).
type (
	// Trace is a per-processor memory-reference trace.
	Trace = trace.Trace
	// TraceEvent is one trace record: the record of one primitive call,
	// which Proc.Do performs.
	TraceEvent = core.Op
)

// CaptureTrace attaches a primitive-stream recorder to a machine (call
// before Run); the returned builder's Trace method yields a replayable
// trace after the run.
func CaptureTrace(m *Machine) *trace.Builder { return trace.Capture(m) }

// Series is a named (x, y) curve produced by the harness.
type Series = metrics.Series

// Evaluation counters (package metrics). Both types serialize to JSON —
// the same form the ssmpd daemon's /metrics endpoint and sim results use.
type (
	// MessageStats counts network messages by kind and cost class;
	// Machine.Messages returns the run's counters.
	MessageStats = metrics.Collector
	// Histogram is a power-of-two-bucket distribution.
	Histogram = metrics.Histogram
)

// Fault injection (chaos testing). Configure Config.Faults with a nonzero
// seed and rates to run the machine over a misbehaving interconnect; the
// fabric's reliable transport recovers, and Result.Faults reports both the
// injections and the recovery work.
type (
	// FaultConfig parameterizes the interconnect fault plane.
	FaultConfig = network.FaultConfig
	// FaultRates are per-message drop/duplicate/delay probabilities.
	FaultRates = network.FaultRates
	// FaultCounters reports injections and transport recovery.
	FaultCounters = metrics.FaultCounters
)

// Remote-memory-reference accounting. Every shared reference is classified
// at the cache/fabric layer as local (served within the issuing node) or
// remote (crossed the interconnect); Result.RMR carries the run's totals
// and Machine.RMRs the per-processor account.
type (
	// RMRCounters is a local/remote/writeback reference tally.
	RMRCounters = metrics.RMRCounters
	// RMRAccount attributes RMRCounters to each issuing processor.
	RMRAccount = metrics.RMRAccount
)

// History verification (package history).
type (
	// HistoryRecorder accumulates memory operations with real-time
	// intervals; obtain one with Machine.EnableHistory and call
	// CheckLinearizable after the run.
	HistoryRecorder = history.Recorder
	// HistoryOp is one recorded operation.
	HistoryOp = history.Op
)
