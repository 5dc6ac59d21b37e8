package main

import (
	"context"
	"flag"
	"fmt"
	"strings"

	"ssmp/internal/kvapp"
	"ssmp/internal/litmus"
	"ssmp/internal/network"
	"ssmp/internal/sim"
)

const kvUsage = `usage:
  ssmp kv run   [-procs 16] [-lock cbl] [-keys 1024] [-shards 16] [-ops 256] [-json] ...
  ssmp kv sweep [-procs 4,8,16,32,64] [-locks cbl,mcs] [-workers N] [-csv] [-json]
  ssmp kv soak  [-seeds 16] [-procs 4] [-drop 0.03] [-dup 0.03] [-delay 0.1]`

// kv runs the in-sim key-value service: a sharded store whose server loops
// execute on the simulated multiprocessor, serving a seeded synthetic
// client population (Zipfian keys, bursty arrivals, get/put/CAS). run
// executes one population and prints its latency and throughput; sweep
// crosses processor counts with lock managers (-workers >= 1 runs one PDES
// lane per node, on one thread, which is lane-safe on the contended
// network); soak crosses a corpus of populations with fault
// seeds on a misbehaving interconnect and checks the
// sequential-consistency oracle on every run.
func (c *cli) kv(args []string) error {
	return subcommand(args, kvUsage, map[string]func([]string) error{
		"run": c.kvRun, "sweep": c.kvSweep, "soak": c.kvSoak,
	})
}

// specFlags registers the client-population knobs shared by run and sweep.
// The returned resolve func must run after fs.Parse to finish the spec.
func specFlags(fs *flag.FlagSet, def kvapp.Spec) (*kvapp.Spec, func()) {
	s := &kvapp.Spec{}
	fs.IntVar(&s.Keys, "keys", def.Keys, "key-space size")
	fs.IntVar(&s.Shards, "shards", def.Shards, "shard locks keys hash onto")
	fs.IntVar(&s.Sessions, "sessions", def.Sessions, "logical clients per processor")
	fs.IntVar(&s.Ops, "ops", def.Ops, "requests per processor")
	fs.Float64Var(&s.GetFrac, "get", def.GetFrac, "get fraction of the op mix")
	fs.Float64Var(&s.PutFrac, "put", def.PutFrac, "put fraction (remainder CAS)")
	fs.Float64Var(&s.Theta, "theta", def.Theta, "zipfian popularity skew (0 = uniform)")
	gap := fs.Int64("gap", int64(def.Arrival.MeanGap), "mean in-burst inter-arrival gap (cycles)")
	off := fs.Int64("off", int64(def.Arrival.MeanOff), "mean inter-burst silence (cycles)")
	fs.IntVar(&s.Arrival.MeanBurst, "burst", def.Arrival.MeanBurst, "mean arrivals per burst")
	closed := fs.Bool("closed", !def.OpenLoop, "closed-loop clients (default open-loop)")
	fs.IntVar(&s.SubCap, "subcap", def.SubCap, "READ-UPDATE subscription capacity (0 = fast path off)")
	fs.IntVar(&s.SubscribeAfter, "subafter", def.SubscribeAfter, "accesses before a key is subscribed")
	fs.Uint64Var(&s.Seed, "seed", def.Seed, "workload seed")
	return s, func() {
		s.Arrival.MeanGap = sim.Time(*gap)
		s.Arrival.MeanOff = sim.Time(*off)
		s.OpenLoop = !*closed
	}
}

func runOptFlags(fs *flag.FlagSet) *kvapp.RunOptions {
	o := &kvapp.RunOptions{}
	fs.Uint64Var(&o.Jitter, "jitter", 0, "schedule jitter seed")
	fs.IntVar(&o.SimWorkers, "workers", 0, "PDES lanes: >= 1 runs one lane per node, on one thread (lane-safe on the contended network)")
	fs.BoolVar(&o.IdealNetwork, "ideal", false, "ideal (contention-free) network (ablation)")
	return o
}

func (c *cli) kvRun(args []string) error {
	fs := c.flags("kv run")
	procs := fs.Int("procs", 16, "machine size (a power of two)")
	lock := fs.String("lock", "cbl", "shard lock manager (cbl, mcs, tas, ...)")
	spec, resolve := specFlags(fs, kvapp.DefaultSpec(16))
	opts := runOptFlags(fs)
	asJSON := fs.Bool("json", false, "emit the full result as JSON")
	fs.Parse(args)
	resolve()
	spec.Procs, spec.Lock = *procs, *lock

	res, err := kvapp.Run(context.Background(), *spec, *opts)
	if err != nil {
		return err
	}
	if err := res.Check(); err != nil {
		return err
	}
	if *asJSON {
		return writeJSON(c.out, res)
	}
	fmt.Fprint(c.out, res.Summary())
	return nil
}

func (c *cli) kvSweep(args []string) error {
	fs := c.flags("kv sweep")
	procsFlag := fs.String("procs", "4,8,16,32,64", "comma-separated processor counts (powers of two)")
	locksFlag := fs.String("locks", "cbl,mcs", "comma-separated lock managers")
	spec, resolve := specFlags(fs, kvapp.DefaultSpec(16))
	opts := runOptFlags(fs)
	asCSV := fs.Bool("csv", false, "emit CSV")
	asJSON := fs.Bool("json", false, "emit JSON points")
	fs.Parse(args)
	resolve()

	procs, err := parseProcs(*procsFlag)
	if err != nil {
		return err
	}
	type point struct {
		Lock       string  `json:"lock"`
		Procs      int     `json:"procs"`
		Cycles     uint64  `json:"cycles"`
		P50        uint64  `json:"p50_cycles"`
		P99        uint64  `json:"p99_cycles"`
		Mean       float64 `json:"mean_cycles"`
		Throughput float64 `json:"throughput_ops_per_kcycle"`
		FastReads  uint64  `json:"fast_reads"`
		RMRRemote  uint64  `json:"rmr_remote"`
	}
	var pts []point
	for _, lock := range strings.Split(*locksFlag, ",") {
		for _, n := range procs {
			s := *spec
			s.Procs, s.Lock = n, strings.TrimSpace(lock)
			res, err := kvapp.Run(context.Background(), s, *opts)
			if err != nil {
				return err
			}
			if err := res.Check(); err != nil {
				return err
			}
			pts = append(pts, point{
				Lock: s.Lock, Procs: n, Cycles: uint64(res.Sim.Cycles),
				P50: res.P50(), P99: res.P99(), Mean: res.Mean(),
				Throughput: res.ThroughputOpsPerKCycle(),
				FastReads:  res.FastReads, RMRRemote: res.Sim.RMR.Remote,
			})
		}
	}
	switch {
	case *asJSON:
		return writeJSON(c.out, pts)
	case *asCSV:
		fmt.Fprintln(c.out, "lock,procs,cycles,p50_cycles,p99_cycles,mean_cycles,throughput_ops_per_kcycle,fast_reads,rmr_remote")
		for _, pt := range pts {
			fmt.Fprintf(c.out, "%s,%d,%d,%d,%d,%.1f,%.3f,%d,%d\n",
				pt.Lock, pt.Procs, pt.Cycles, pt.P50, pt.P99, pt.Mean, pt.Throughput, pt.FastReads, pt.RMRRemote)
		}
	default:
		fmt.Fprintf(c.out, "%-8s %6s %10s %8s %8s %10s %10s\n",
			"lock", "procs", "cycles", "p50", "p99", "ops/kcyc", "fastreads")
		for _, pt := range pts {
			fmt.Fprintf(c.out, "%-8s %6d %10d %8d %8d %10.3f %10d\n",
				pt.Lock, pt.Procs, pt.Cycles, pt.P50, pt.P99, pt.Throughput, pt.FastReads)
		}
	}
	return nil
}

func (c *cli) kvSoak(args []string) error {
	fs := c.flags("kv soak")
	seeds := fs.Int("seeds", 16, "fault seeds per population")
	procs := fs.Int("procs", 4, "machine size (a power of two)")
	rates := faultFlags(fs)
	fs.Parse(args)

	seedList := litmus.ChaosSeeds(*seeds)
	runs, faulted := 0, 0
	for ci, spec := range soakCorpus(*procs) {
		for _, seed := range seedList {
			res, err := kvapp.Run(context.Background(), spec, kvapp.RunOptions{
				Jitter: seed,
				Faults: network.FaultConfig{Seed: seed, Rates: *rates},
			})
			if err == nil {
				err = res.Check()
			}
			if err != nil {
				return fmt.Errorf("population %d seed %d: %w", ci, seed, err)
			}
			runs++
			if res.Sim.Faults.Any() {
				faulted++
			}
		}
		fmt.Fprintf(c.out, "population %d (%s, get=%.2f open=%v subcap=%d): %d seeds ok\n",
			ci, spec.Lock, spec.GetFrac, spec.OpenLoop, spec.SubCap, len(seedList))
	}
	if faulted == 0 {
		return fmt.Errorf("soak injected no faults over %d runs", runs)
	}
	fmt.Fprintf(c.out, "soak: %d runs, %d with injected faults, oracle passed everywhere\n", runs, faulted)
	return nil
}

// soakCorpus mirrors the kvapp chaos-test corpus: both protocols, open and
// closed loop, read-mostly and write-heavy mixes, fast path on and off.
func soakCorpus(procs int) []kvapp.Spec {
	base := func(lock string) kvapp.Spec {
		s := kvapp.DefaultSpec(procs)
		s.Lock = lock
		s.Keys = 64
		s.Shards = 4
		s.Ops = 48
		s.SubCap = 8
		return s
	}
	writeHeavy := base("cbl")
	writeHeavy.GetFrac, writeHeavy.PutFrac = 0.2, 0.5
	closed := base("cbl")
	closed.OpenLoop = false
	noFast := base("cbl")
	noFast.SubCap = 0
	mcsClosed := base("mcs")
	mcsClosed.OpenLoop = false
	return []kvapp.Spec{base("cbl"), writeHeavy, closed, noFast, base("mcs"), mcsClosed}
}
