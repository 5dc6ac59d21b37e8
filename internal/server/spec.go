package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"ssmp/internal/core"
	"ssmp/internal/harness"
	"ssmp/internal/metrics"
	"ssmp/internal/network"
	"ssmp/internal/sim"
	"ssmp/internal/workload"
)

// SimSpec is the canonical specification of one simulation job. After
// Normalize, the struct is fully determined (every default applied), so
// its JSON encoding — struct fields marshal in declaration order — is a
// canonical form, and its hash addresses the result exactly: the simulator
// guarantees the same spec produces a bit-identical result.
type SimSpec struct {
	// Procs is the machine size (a power of two).
	Procs int `json:"procs"`
	// Protocol is "cbl" or "wbi".
	Protocol string `json:"protocol"`
	// Consistency is "bc" or "sc" (CBL machine; WBI forces "sc").
	Consistency string `json:"consistency"`
	// Topology is "omega", "mesh", or "bus".
	Topology string `json:"topology"`
	// Workload is "sync" or "queue".
	Workload string `json:"workload"`
	// Grain is the references-per-task granularity.
	Grain int `json:"grain"`
	// Episodes is the sync model's episodes per processor.
	Episodes int `json:"episodes"`
	// Tasks is the work-queue model's initial task count.
	Tasks int `json:"tasks"`
	// SpawnProb is the work-queue model's task-spawn probability
	// (pointer so that an explicit 0 is distinguishable from "default").
	SpawnProb *float64 `json:"spawn_prob,omitempty"`
	// Backoff selects exponential backoff for WBI software locks.
	Backoff bool `json:"backoff"`
	// Seed drives all workload randomness.
	Seed *uint64 `json:"seed,omitempty"`
	// Jitter seeds schedule jitter (core.Config.Jitter); 0 keeps the
	// canonical deterministic schedule.
	Jitter uint64 `json:"jitter"`
	// SimWorkers runs the simulation with one lane per node under the
	// time-windowed parallel loop, on this many workers
	// (core.Config.SimWorkers); 0 is a serial run, the kernel's one-lane
	// case. The contended network is lane-safe (window-barrier port
	// arbitration), so ideal_network is not required; the bus topology
	// always runs one lane, so its result is the serial one. Results are
	// bit-identical for every value >= 1. omitempty keeps serial specs'
	// cache keys unchanged.
	SimWorkers int `json:"sim_workers,omitempty"`

	// Ablation toggles (see core.Config).
	DirectHandoff bool `json:"direct_handoff"`
	WriteUpdate   bool `json:"write_update"`
	IdealNetwork  bool `json:"ideal_network"`
	DanceHall     bool `json:"dance_hall"`
	DirPointers   int  `json:"dir_pointers"`

	// Faults optionally enables the interconnect fault plane and the
	// fabric's reliable transport (nil = a reliable fabric). A pointer
	// with omitempty keeps fault-free specs' cache keys unchanged.
	Faults *FaultSpec `json:"faults,omitempty"`
}

// FaultSpec is the JSON form of network.FaultConfig: seeded per-link
// drop/duplicate/delay injection.
type FaultSpec struct {
	// Seed drives the fault randomness; it must be nonzero (a zero seed
	// would silently disable the plane — omit the faults block instead).
	Seed uint64 `json:"seed"`
	// Drop, Dup and Delay are per-message probabilities in [0,1).
	Drop  float64 `json:"drop"`
	Dup   float64 `json:"dup"`
	Delay float64 `json:"delay"`
	// DelayMax bounds injected extra delay in cycles (0 = the default).
	DelayMax int64 `json:"delay_max,omitempty"`
}

// config lowers the spec to the network's fault configuration.
func (f *FaultSpec) config() network.FaultConfig {
	return network.FaultConfig{
		Seed:     f.Seed,
		Rates:    network.FaultRates{Drop: f.Drop, Dup: f.Dup, Delay: f.Delay},
		DelayMax: sim.Time(f.DelayMax),
	}
}

// maxSpecProcs caps the accepted machine size: a request is a few hundred
// bytes, but the simulation it names is O(procs · work), and the daemon
// should refuse jobs that cannot plausibly finish within a request
// deadline.
const maxSpecProcs = 128

// Normalize applies defaults in place and validates the spec.
func (s *SimSpec) Normalize() error {
	if s.Procs == 0 {
		s.Procs = 16
	}
	s.Protocol = strings.ToLower(s.Protocol)
	if s.Protocol == "" {
		s.Protocol = "cbl"
	}
	s.Consistency = strings.ToLower(s.Consistency)
	if s.Consistency == "" {
		if s.Protocol == "wbi" {
			s.Consistency = "sc"
		} else {
			s.Consistency = "bc"
		}
	}
	s.Topology = strings.ToLower(s.Topology)
	if s.Topology == "" {
		s.Topology = "omega"
	}
	s.Workload = strings.ToLower(s.Workload)
	if s.Workload == "" {
		s.Workload = "queue"
	}
	if s.Grain == 0 {
		s.Grain = workload.MediumGrain
	}
	if s.Episodes == 0 {
		s.Episodes = 8
	}
	if s.Tasks == 0 {
		s.Tasks = 128
	}
	if s.SpawnProb == nil {
		p := 0.2
		s.SpawnProb = &p
	}
	if s.Seed == nil {
		v := uint64(42)
		s.Seed = &v
	}

	if s.Procs < 2 || s.Procs > maxSpecProcs || s.Procs&(s.Procs-1) != 0 {
		return fmt.Errorf("procs must be a power of two in [2,%d], got %d", maxSpecProcs, s.Procs)
	}
	proto, err := core.ParseProtocol(s.Protocol)
	if err != nil {
		return fmt.Errorf("protocol must be cbl or wbi, got %q", s.Protocol)
	}
	cons, err := core.ParseConsistency(s.Consistency)
	if err != nil {
		return fmt.Errorf("consistency must be bc or sc, got %q", s.Consistency)
	}
	if proto == core.ProtoWBI && cons != core.SC {
		return fmt.Errorf("the wbi machine is always sequentially consistent")
	}
	if _, err := network.ParseTopology(s.Topology); err != nil {
		return fmt.Errorf("topology must be omega, mesh, or bus, got %q", s.Topology)
	}
	switch s.Workload {
	case "sync", "queue":
	default:
		return fmt.Errorf("workload must be sync or queue, got %q", s.Workload)
	}
	if s.Grain < 1 || s.Grain > 65536 {
		return fmt.Errorf("grain must be in [1,65536], got %d", s.Grain)
	}
	if s.Episodes < 1 || s.Episodes > 4096 {
		return fmt.Errorf("episodes must be in [1,4096], got %d", s.Episodes)
	}
	if s.Tasks < 1 || s.Tasks > 1<<20 {
		return fmt.Errorf("tasks must be in [1,%d], got %d", s.Tasks, 1<<20)
	}
	if p := *s.SpawnProb; p < 0 || p >= 1 {
		return fmt.Errorf("spawn_prob must be in [0,1), got %g", p)
	}
	if s.DirPointers < 0 {
		return fmt.Errorf("dir_pointers must be >= 0, got %d", s.DirPointers)
	}
	if s.SimWorkers < 0 || s.SimWorkers > maxSpecProcs {
		return fmt.Errorf("sim_workers must be in [0,%d], got %d", maxSpecProcs, s.SimWorkers)
	}
	if s.Faults != nil {
		if s.Faults.DelayMax < 0 {
			return fmt.Errorf("faults.delay_max must be >= 0, got %d", s.Faults.DelayMax)
		}
		fc := s.Faults.config()
		if err := fc.Validate(); err != nil {
			return fmt.Errorf("faults: %w", err)
		}
		if !fc.Enabled() {
			// Reject no-op fault blocks so "faults off" has exactly one
			// canonical spelling (no faults field) and one cache key.
			return fmt.Errorf("faults block present but inert (zero seed or all-zero rates); omit it instead")
		}
	}
	return nil
}

// Key returns the spec's content address. Call Normalize first.
func (s *SimSpec) Key() string { return specKey("sim", s) }

// config builds the machine configuration the spec names. Call Normalize
// first: it has checked every name.
func (s *SimSpec) config() core.Config {
	cfg := core.DefaultConfig(s.Procs)
	cfg.Protocol, _ = core.ParseProtocol(s.Protocol)
	cfg.Consistency, _ = core.ParseConsistency(s.Consistency)
	cfg.Topology, _ = network.ParseTopology(s.Topology)
	cfg.DirectHandoff = s.DirectHandoff
	cfg.WriteUpdate = s.WriteUpdate
	cfg.IdealNetwork = s.IdealNetwork
	cfg.DanceHall = s.DanceHall
	cfg.DirMaxPointers = s.DirPointers
	cfg.Jitter = s.Jitter
	cfg.SimWorkers = s.SimWorkers
	if s.Faults != nil {
		cfg.Faults = s.Faults.config()
	}
	return cfg
}

// SimResult is the JSON form of a completed simulation.
type SimResult struct {
	Cycles uint64 `json:"cycles"`
	// Events is the number of kernel events the simulation executed — the
	// denominator-free measure of simulation work, independent of wall
	// time and host load.
	Events          uint64  `json:"events"`
	Messages        uint64  `json:"messages"`
	MeanNetLatency  float64 `json:"mean_net_latency"`
	MeanNetQueueing float64 `json:"mean_net_queueing"`
	MeanUtilization float64 `json:"mean_utilization"`
	// ByKind breaks Messages down by message kind and cost class
	// (metrics.Collector's JSON form).
	ByKind *metrics.Collector `json:"by_kind"`
	// Faults reports fault injection and transport recovery counters
	// (present only when the spec enabled the fault plane).
	Faults *metrics.FaultCounters `json:"faults,omitempty"`
	// RMR is the run's remote-memory-reference account: every shared
	// reference classified local (served by the issuing node) or remote
	// (crossed the interconnect), plus writebacks, summed over processors.
	RMR *metrics.RMRCounters `json:"rmr,omitempty"`
}

// run executes the spec on a fresh machine. The returned collector is the
// run's message counters (also referenced from the result), for merging
// into the daemon's aggregate counters.
func (s *SimSpec) run(ctx context.Context) (*SimResult, *metrics.Collector, error) {
	cfg := s.config()
	job := workload.Job{Queue: s.Workload != "sync", Params: workload.DefaultParams(), Episodes: s.Episodes,
		Tasks: s.Tasks, SpawnProb: *s.SpawnProb, Backoff: s.Backoff, Seed: *s.Seed}
	job.Params.Grain = s.Grain
	progs, _ := job.Programs(cfg)
	m := core.NewMachine(cfg)
	res, err := m.RunContext(ctx, progs)
	if err != nil {
		return nil, nil, err
	}
	out := &SimResult{
		Cycles:          uint64(res.Cycles),
		Events:          res.Events,
		Messages:        res.Messages,
		MeanNetLatency:  res.MeanNetLatency,
		MeanNetQueueing: res.MeanNetQueueing,
		MeanUtilization: res.MeanUtilization,
		ByKind:          m.Messages(),
	}
	if s.Faults != nil {
		fc := res.Faults
		out.Faults = &fc
	}
	if res.RMR.Any() {
		rc := res.RMR
		out.RMR = &rc
	}
	return out, m.Messages(), nil
}

// FigureSpec is the canonical specification of a paper-figure job: which
// figure, and the sweep parameters the harness exposes.
type FigureSpec struct {
	// Figure is the paper figure number (4-7).
	Figure int `json:"figure"`
	// Procs is the processor-count sweep.
	Procs []int `json:"procs"`
	// Episodes, Tasks, SpawnProb, Seed override harness defaults.
	Episodes  int      `json:"episodes"`
	Tasks     int      `json:"tasks"`
	SpawnProb *float64 `json:"spawn_prob,omitempty"`
	Seed      *uint64  `json:"seed,omitempty"`
}

// Normalize applies harness defaults in place and validates the spec.
func (f *FigureSpec) Normalize() error {
	def := harness.DefaultOptions()
	if f.Procs == nil {
		f.Procs = def.Procs
	}
	if f.Episodes == 0 {
		f.Episodes = def.Episodes
	}
	if f.Tasks == 0 {
		f.Tasks = def.Tasks
	}
	if f.SpawnProb == nil {
		f.SpawnProb = &def.SpawnProb
	}
	if f.Seed == nil {
		f.Seed = &def.Seed
	}

	if f.Figure < 4 || f.Figure > 7 {
		return fmt.Errorf("figure must be 4-7, got %d", f.Figure)
	}
	if len(f.Procs) == 0 || len(f.Procs) > 16 {
		return fmt.Errorf("procs sweep must have 1-16 entries, got %d", len(f.Procs))
	}
	for _, n := range f.Procs {
		if n < 2 || n > maxSpecProcs || n&(n-1) != 0 {
			return fmt.Errorf("procs entries must be powers of two in [2,%d], got %d", maxSpecProcs, n)
		}
	}
	if f.Episodes < 1 || f.Episodes > 4096 {
		return fmt.Errorf("episodes must be in [1,4096], got %d", f.Episodes)
	}
	if f.Tasks < 1 || f.Tasks > 1<<20 {
		return fmt.Errorf("tasks must be in [1,%d], got %d", f.Tasks, 1<<20)
	}
	if p := *f.SpawnProb; p < 0 || p >= 1 {
		return fmt.Errorf("spawn_prob must be in [0,1), got %g", p)
	}
	return nil
}

// Key returns the spec's content address. Call Normalize first.
func (f *FigureSpec) Key() string { return specKey("figure", f) }

// run reproduces the figure through the harness.
func (f *FigureSpec) run(ctx context.Context) (*harness.Figure, error) {
	o := harness.DefaultOptions()
	o.Procs = f.Procs
	o.Episodes = f.Episodes
	o.Tasks = f.Tasks
	o.SpawnProb = *f.SpawnProb
	o.Seed = *f.Seed
	fig, err := o.WithContext(ctx).FigureByNumber(f.Figure)
	if err != nil {
		return nil, err
	}
	return &fig, nil
}

// specKey hashes a normalized spec into its content address. The kind tag
// keeps differently-typed specs with coincidentally equal encodings apart;
// a version bump belongs here if a spec's canonical form ever changes
// meaning.
func specKey(kind string, spec any) string {
	enc, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("server: canonicalizing %s spec: %v", kind, err))
	}
	sum := sha256.Sum256(append([]byte("ssmpd/v1/"+kind+"\x00"), enc...))
	return "sha256:" + hex.EncodeToString(sum[:])
}
