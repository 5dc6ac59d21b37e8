package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"ssmp"
	"ssmp/internal/core"
	"ssmp/internal/mem"
	"ssmp/internal/network"
	"ssmp/internal/trace"
	"ssmp/internal/workload"
)

// machineConfig returns the default configuration of a procs-node machine
// running the named protocol and memory model.
func machineConfig(procs int, proto, cons string) (ssmp.Config, error) {
	cfg := ssmp.DefaultConfig(procs)
	var err error
	if cfg.Protocol, err = core.ParseProtocol(proto); err != nil {
		return cfg, err
	}
	cfg.Consistency, err = core.ParseConsistency(cons)
	return cfg, err
}

// sim runs one simulation of the paper's machine (or the WBI baseline)
// under one workload model and prints the run's metrics. The stencil
// workload with -workers runs one PDES lane per node, which is lane-safe
// on the contended omega and mesh networks; the bus always runs one lane,
// the serial run.
func (c *cli) sim(args []string) (err error) {
	fs := c.flags("sim")
	procs := fs.Int("procs", 16, "processor count (power of two)")
	proto := fs.String("proto", "cbl", "machine protocol: cbl | wbi")
	cons := fs.String("consistency", "bc", "memory model (cbl machine): bc | sc")
	wl := fs.String("workload", "queue", "workload model: sync | queue | stencil")
	grain := fs.Int("grain", ssmp.MediumGrain, "references per task (granularity)")
	episodes := fs.Int("episodes", 8, "sync model: episodes per processor")
	tasks := fs.Int("tasks", 128, "queue model: initial tasks")
	spawn := fs.Float64("spawn", 0.2, "queue model: task spawn probability")
	backoff := fs.Bool("backoff", false, "wbi: exponential backoff on locks")
	seed := fs.Uint64("seed", 42, "workload seed")
	ideal := fs.Bool("ideal-net", false, "contention-free network (ablation)")
	danceHall := fs.Bool("dance-hall", false, "all memory across the network (Table 2 organization)")
	directHandoff := fs.Bool("direct-handoff", false, "cbl: pass write-lock grants straight down the queue")
	writeUpdate := fs.Bool("write-update", false, "cbl: sender-initiated write-update coherence (ablation)")
	dirPtrs := fs.Int("dir-pointers", 0, "wbi: limited directory pointer count (0 = full map)")
	topology := fs.String("topology", "omega", "interconnect: omega | mesh | bus")
	msgTrace := fs.Bool("msgtrace", false, "dump every message to stderr (serial runs only)")
	workers := fs.Int("workers", 0, "parallel (PDES) engine workers; 0 = serial run (one lane)")
	jitter := fs.Uint64("jitter", 0, "schedule-jitter seed (0 = canonical schedule)")
	cells := fs.Int("cells", 64, "stencil: cells per processor strip")
	iters := fs.Int("iters", 20, "stencil: Jacobi iterations")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	fs.Parse(args)

	cfg, err := machineConfig(*procs, *proto, *cons)
	if err != nil {
		return err
	}
	cfg.IdealNetwork = *ideal
	cfg.DanceHall = *danceHall
	cfg.DirectHandoff = *directHandoff
	cfg.WriteUpdate = *writeUpdate
	cfg.DirMaxPointers = *dirPtrs
	cfg.SimWorkers = *workers
	cfg.Jitter = *jitter
	if cfg.Topology, err = network.ParseTopology(*topology); err != nil {
		return err
	}
	// Everything that would panic while building is checked first, so a
	// bad flag is a one-line error.
	if err := cfg.Validate(); err != nil {
		return err
	}
	if *workers > 0 && cfg.Topology == network.TopBus {
		fmt.Fprintln(c.log, "note: the bus is a single shared medium; it runs one lane, the serial run")
	}

	var progs []ssmp.Program
	var stencilStrips [][]float64
	var stencilSpec ssmp.StencilSpec
	kitName := "none"
	switch *wl {
	case "sync", "queue":
		job := workload.Job{Queue: *wl == "queue", Params: ssmp.DefaultWorkloadParams(), Episodes: *episodes,
			Tasks: *tasks, SpawnProb: *spawn, Backoff: *backoff, Seed: *seed}
		job.Params.Grain = *grain
		if err := job.Params.Validate(); err != nil {
			return err
		}
		if job.SpawnProb < 0 || job.SpawnProb >= 1 {
			return fmt.Errorf("workload: spawn probability must be in [0,1), got %g", job.SpawnProb)
		}
		var kit ssmp.SyncKit
		progs, kit = job.Programs(cfg)
		kitName = kit.Name
	case "stencil":
		if cfg.Protocol != ssmp.ProtoCBL {
			return errors.New("the stencil workload is CBL-only")
		}
		stencilSpec = ssmp.StencilSpec{Procs: *procs, CellsPer: *cells, Iters: *iters}
		if err := stencilSpec.Validate(); err != nil {
			return err
		}
		kitName = "pairwise-HW-barrier"
		progs, stencilStrips = stencilSpec.Programs(
			mem.Geometry{BlockWords: cfg.BlockWords, Nodes: cfg.Nodes})
	default:
		return fmt.Errorf("unknown workload %q", *wl)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("cpuprofile: %w", cerr)
			}
		}()
	}

	m := ssmp.NewMachine(cfg)
	if *msgTrace {
		// One trace stream cannot be written from concurrent lanes.
		if m.Lanes() > 1 {
			return fmt.Errorf("-msgtrace needs a serial run, but -workers %d runs %d lanes", *workers, m.Lanes())
		}
		m.TraceMessages(c.log)
	}
	res, err := m.Run(progs)
	if err != nil {
		return fmt.Errorf("run failed: %w", err)
	}

	fmt.Fprintf(c.out, "machine:        %d-node %v (%v), %s workload, %s sync\n",
		*procs, cfg.Protocol, cfg.Consistency, *wl, kitName)
	if m.Lanes() > 1 {
		fmt.Fprintf(c.out, "engine:         parallel, %d lanes, %d workers\n", m.Lanes(), *workers)
	} else {
		fmt.Fprintf(c.out, "engine:         serial\n")
	}
	fmt.Fprintf(c.out, "completion:     %d cycles\n", res.Cycles)
	fmt.Fprintf(c.out, "messages:       %d\n", res.Messages)
	fmt.Fprintf(c.out, "net latency:    %.2f cycles mean, %.2f queueing\n", res.MeanNetLatency, res.MeanNetQueueing)
	fmt.Fprintf(c.out, "by kind:        %s\n", m.Messages())
	if *wl == "stencil" {
		ref := stencilSpec.Reference()
		for pid, strip := range stencilStrips {
			for i, v := range strip {
				if v != ref[pid*stencilSpec.CellsPer+i] {
					return fmt.Errorf("stencil cell (%d,%d) diverged from the sequential reference", pid, i)
				}
			}
		}
		fmt.Fprintf(c.out, "stencil:        %d cells x %d iterations, bit-exact vs sequential reference\n",
			*procs**cells, *iters)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
	}
	return nil
}

// trace replays a memory-reference trace (see internal/trace for the
// format) on a simulated machine, the trace-driven evaluation the paper
// names as future work (§6). -gen synthesizes a trace and -capture records
// one from a live workload run instead; both write it to stdout.
func (c *cli) trace(args []string) error {
	fs := c.flags("trace")
	file := fs.String("file", "", "trace file (defaults to stdin)")
	procs := fs.Int("procs", 8, "machine size (power of two)")
	proto := fs.String("proto", "cbl", "machine protocol: cbl | wbi")
	cons := fs.String("consistency", "bc", "memory model: bc | sc")
	gen := fs.Bool("gen", false, "emit a synthetic sync-model trace to stdout instead of replaying")
	capture := fs.String("capture", "", "run a workload (sync | queue) and emit its captured trace")
	events := fs.Int("events", 200, "with -gen: events per processor")
	seed := fs.Uint64("seed", 42, "with -gen or -capture: generator or workload seed")
	fs.Parse(args)

	// -gen builds no machine, so it writes a trace for any processor count.
	if err := checkProcs(*procs); err != nil && !*gen {
		return err
	}
	cfg, err := machineConfig(*procs, *proto, *cons)
	if err != nil {
		return err
	}
	switch {
	case *capture != "":
		if *capture != "sync" && *capture != "queue" {
			return fmt.Errorf("unknown workload %q", *capture)
		}
		job := workload.Job{Queue: *capture == "queue", Params: ssmp.DefaultWorkloadParams(),
			Episodes: 4, Tasks: 32, SpawnProb: 0.2, Seed: *seed}
		progs, _ := job.Programs(cfg)
		m := ssmp.NewMachine(cfg)
		b := trace.Capture(m)
		if _, err := m.Run(progs); err != nil {
			return err
		}
		return b.Trace().Write(c.out)
	case *gen:
		p := trace.DefaultSynthParams(*procs)
		p.Events = *events
		p.Seed = *seed
		p.WBI = cfg.Protocol == ssmp.ProtoWBI
		tr, err := trace.Synthesize(p)
		if err != nil {
			return err
		}
		return tr.Write(c.out)
	}

	in := c.in
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	tr, err := trace.Parse(in)
	if err != nil {
		return err
	}
	progs, err := tr.Programs(*procs)
	if err != nil {
		return err
	}
	m := ssmp.NewMachine(cfg)
	res, err := m.Run(progs)
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "replayed %d processor traces on %d-node %v (%v)\n",
		len(tr.Procs), *procs, cfg.Protocol, cfg.Consistency)
	fmt.Fprintf(c.out, "completion: %d cycles\n", res.Cycles)
	fmt.Fprintf(c.out, "messages:   %d\n", res.Messages)
	fmt.Fprintf(c.out, "by kind:    %s\n", m.Messages())
	return nil
}
