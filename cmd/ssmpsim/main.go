// Command ssmpsim runs one simulation of the paper's machine (or the WBI
// baseline) under either workload model and prints the run's metrics.
//
// Usage:
//
//	ssmpsim -procs 16 -proto cbl -consistency bc -workload queue -grain 128
//
// The stencil workload plus -workers runs one PDES lane per node, which is
// lane-safe on the contended omega and mesh networks (the bus always runs
// one lane, the serial run):
//
//	ssmpsim -procs 512 -workload stencil -workers 8 -cpuprofile cpu.pb.gz
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"

	"ssmp"
	"ssmp/internal/mem"
	"ssmp/internal/network"
)

func main() {
	procs := flag.Int("procs", 16, "processor count (power of two)")
	proto := flag.String("proto", "cbl", "machine protocol: cbl | wbi")
	cons := flag.String("consistency", "bc", "memory model (cbl machine): bc | sc")
	wl := flag.String("workload", "queue", "workload model: sync | queue | stencil")
	grain := flag.Int("grain", ssmp.MediumGrain, "references per task (granularity)")
	episodes := flag.Int("episodes", 8, "sync model: episodes per processor")
	tasks := flag.Int("tasks", 128, "queue model: initial tasks")
	spawn := flag.Float64("spawn", 0.2, "queue model: task spawn probability")
	backoff := flag.Bool("backoff", false, "wbi: exponential backoff on locks")
	seed := flag.Uint64("seed", 42, "workload seed")
	ideal := flag.Bool("ideal-net", false, "contention-free network (ablation)")
	danceHall := flag.Bool("dance-hall", false, "all memory across the network (Table 2 organization)")
	directHandoff := flag.Bool("direct-handoff", false, "cbl: pass write-lock grants straight down the queue")
	writeUpdate := flag.Bool("write-update", false, "cbl: sender-initiated write-update coherence (ablation)")
	dirPtrs := flag.Int("dir-pointers", 0, "wbi: limited directory pointer count (0 = full map)")
	topology := flag.String("topology", "omega", "interconnect: omega | mesh | bus")
	msgTrace := flag.Bool("msgtrace", false, "dump every message to stderr")
	workers := flag.Int("workers", 0, "parallel (PDES) engine workers; 0 = serial run (one lane)")
	jitter := flag.Uint64("jitter", 0, "schedule-jitter seed (0 = canonical schedule)")
	cells := flag.Int("cells", 64, "stencil: cells per processor strip")
	iters := flag.Int("iters", 20, "stencil: Jacobi iterations")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	cfg := ssmp.DefaultConfig(*procs)
	switch *proto {
	case "cbl":
		cfg.Protocol = ssmp.ProtoCBL
	case "wbi":
		cfg.Protocol = ssmp.ProtoWBI
	default:
		log.Fatalf("unknown protocol %q", *proto)
	}
	switch *cons {
	case "bc":
		cfg.Consistency = ssmp.BC
	case "sc":
		cfg.Consistency = ssmp.SC
	default:
		log.Fatalf("unknown consistency %q", *cons)
	}
	cfg.IdealNetwork = *ideal
	cfg.DanceHall = *danceHall
	cfg.DirectHandoff = *directHandoff
	cfg.WriteUpdate = *writeUpdate
	cfg.DirMaxPointers = *dirPtrs
	cfg.SimWorkers = *workers
	cfg.Jitter = *jitter
	switch *topology {
	case "omega":
	case "mesh":
		cfg.Topology = network.TopMesh
	case "bus":
		cfg.Topology = network.TopBus
	default:
		log.Fatalf("unknown topology %q", *topology)
	}
	if *workers > 0 && cfg.Topology == network.TopBus {
		fmt.Fprintln(os.Stderr, "note: the bus is a single shared medium; it runs one lane, the serial run")
	}

	var progs []ssmp.Program
	var stencilStrips [][]float64
	var stencilSpec ssmp.StencilSpec
	kitName := "none"
	switch *wl {
	case "sync", "queue":
		p := ssmp.DefaultWorkloadParams()
		p.Grain = *grain
		layout := ssmp.NewLayout(cfg, p)
		var kit ssmp.SyncKit
		if cfg.Protocol == ssmp.ProtoCBL {
			kit = ssmp.CBLKit(layout, *procs)
		} else {
			kit = ssmp.WBIKit(layout, *procs, *backoff)
		}
		kitName = kit.Name
		if *wl == "sync" {
			progs = ssmp.SyncModel(*procs, *episodes, p, layout, kit, *seed)
		} else {
			progs, _ = ssmp.WorkQueue(*procs, *tasks, *spawn, p, layout, kit, *seed)
		}
	case "stencil":
		if cfg.Protocol != ssmp.ProtoCBL {
			log.Fatalf("the stencil workload is CBL-only")
		}
		stencilSpec = ssmp.StencilSpec{Procs: *procs, CellsPer: *cells, Iters: *iters}
		kitName = "pairwise-HW-barrier"
		progs, stencilStrips = stencilSpec.Programs(
			mem.Geometry{BlockWords: cfg.BlockWords, Nodes: cfg.Nodes})
	default:
		log.Fatalf("unknown workload %q", *wl)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	m := ssmp.NewMachine(cfg)
	if *msgTrace {
		m.TraceMessages(os.Stderr)
	}
	res, err := m.Run(progs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "run failed: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("machine:        %d-node %v (%v), %s workload, %s sync\n",
		*procs, cfg.Protocol, cfg.Consistency, *wl, kitName)
	if m.Lanes() > 1 {
		fmt.Printf("engine:         parallel, %d lanes, %d workers\n", m.Lanes(), *workers)
	} else {
		fmt.Printf("engine:         serial\n")
	}
	fmt.Printf("completion:     %d cycles\n", res.Cycles)
	fmt.Printf("messages:       %d\n", res.Messages)
	fmt.Printf("net latency:    %.2f cycles mean, %.2f queueing\n", res.MeanNetLatency, res.MeanNetQueueing)
	fmt.Printf("by kind:        %s\n", m.Messages())
	if *wl == "stencil" {
		ref := stencilSpec.Reference()
		for pid, strip := range stencilStrips {
			for i, v := range strip {
				if v != ref[pid*stencilSpec.CellsPer+i] {
					fmt.Fprintf(os.Stderr, "stencil cell (%d,%d) diverged from the sequential reference\n", pid, i)
					os.Exit(1)
				}
			}
		}
		fmt.Printf("stencil:        %d cells x %d iterations, bit-exact vs sequential reference\n",
			*procs**cells, *iters)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("memprofile: %v", err)
		}
	}
}
