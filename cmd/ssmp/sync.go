package main

import (
	"fmt"
	"strings"

	"ssmp/internal/litmus"
	"ssmp/internal/network"
	"ssmp/internal/synczoo"
)

const syncUsage = `usage:
  ssmp sync list
  ssmp sync locks    [-procs 2,4,8,16,32] [-iters 8] [-algos keys] [-csv] [-json]
  ssmp sync barriers [-procs 2,4,8,16,32] [-episodes 4] [-algos keys] [-csv] [-json]
  ssmp sync litmus   [-seeds 16] [-procs 4] [-faults] [-drop 0.03] [-dup 0.03] [-delay 0.1]`

// sync runs the synchronization-algorithm zoo: software locks and barriers
// built from the machine's Table 1 primitives, benchmarked against the
// paper's hardware CBL lock and barrier and scored in remote memory
// references per operation. locks and barriers print the contention sweep;
// litmus sweeps the mutual-exclusion and barrier-separation witnesses
// across schedule-jitter seeds, optionally over a faulty interconnect.
func (c *cli) sync(args []string) error {
	return subcommand(args, syncUsage, map[string]func([]string) error{
		"list": c.syncList, "locks": c.syncLocks, "barriers": c.syncBarriers, "litmus": c.syncLitmus,
	})
}

func (c *cli) syncList([]string) error {
	fmt.Fprintln(c.out, "lock algorithms:")
	for _, a := range synczoo.LockAlgos() {
		fmt.Fprintf(c.out, "  %-12s %s\n", a.Key, a.Proto)
	}
	fmt.Fprintln(c.out, "barrier algorithms:")
	for _, a := range synczoo.BarrierAlgos() {
		fmt.Fprintf(c.out, "  %-12s %s\n", a.Key, a.Proto)
	}
	return nil
}

// algoKeys returns the comma-separated keys of -algos, or every key of the
// zoo when it is empty.
func algoKeys(requested string, all []string) []string {
	if requested == "" {
		return all
	}
	return strings.Split(requested, ",")
}

func (c *cli) syncLocks(args []string) error {
	fs := c.flags("sync locks")
	procsFlag := fs.String("procs", "2,4,8,16,32", "comma-separated processor counts (powers of two)")
	iters := fs.Int("iters", 8, "acquisitions per processor")
	algosFlag := fs.String("algos", "", "comma-separated algorithm keys (default: all)")
	asCSV := fs.Bool("csv", false, "emit CSV")
	asJSON := fs.Bool("json", false, "emit JSON points")
	fs.Parse(args)
	procs, err := parseProcs(*procsFlag)
	if err != nil {
		return err
	}
	var all []string
	for _, a := range synczoo.LockAlgos() {
		all = append(all, a.Key)
	}

	var pts []synczoo.LockPoint
	for _, key := range algoKeys(*algosFlag, all) {
		algo, err := synczoo.LockAlgoByKey(strings.TrimSpace(key))
		if err != nil {
			return err
		}
		for _, n := range procs {
			pt, err := synczoo.RunLockBench(algo, synczoo.LockBenchOptions{
				Procs: n, Iters: *iters, Crit: 16, Delay: 32,
			})
			if err != nil {
				return err
			}
			if !pt.Verified() {
				return fmt.Errorf("%s p=%d violated mutual exclusion (final %d, want %d)",
					algo.Key, n, pt.Final, pt.Want)
			}
			pts = append(pts, pt)
		}
	}
	switch {
	case *asJSON:
		return writeJSON(c.out, pts)
	case *asCSV:
		fmt.Fprintln(c.out, "algo,procs,iters,cycles,acquisitions,rmr_local,rmr_remote,rmr_writebacks,rmr_per_acq,acq_per_kcycle")
		for _, pt := range pts {
			fmt.Fprintf(c.out, "%s,%d,%d,%d,%d,%d,%d,%d,%.3f,%.3f\n",
				pt.Algo, pt.Procs, pt.Iters, pt.Cycles, pt.Acquisitions,
				pt.RMR.Local, pt.RMR.Remote, pt.RMR.Writebacks, pt.RMRPerAcq(), pt.AcqPerKCycle())
		}
	default:
		fmt.Fprintf(c.out, "%-12s %6s %10s %12s %10s\n", "algo", "procs", "cycles", "rmr/acq", "acq/kcyc")
		for _, pt := range pts {
			fmt.Fprintf(c.out, "%-12s %6d %10d %12.2f %10.2f\n",
				pt.Algo, pt.Procs, pt.Cycles, pt.RMRPerAcq(), pt.AcqPerKCycle())
		}
	}
	return nil
}

func (c *cli) syncBarriers(args []string) error {
	fs := c.flags("sync barriers")
	procsFlag := fs.String("procs", "2,4,8,16,32", "comma-separated processor counts (powers of two)")
	episodes := fs.Int("episodes", 4, "barrier episodes")
	algosFlag := fs.String("algos", "", "comma-separated algorithm keys (default: all)")
	asCSV := fs.Bool("csv", false, "emit CSV")
	asJSON := fs.Bool("json", false, "emit JSON points")
	fs.Parse(args)
	procs, err := parseProcs(*procsFlag)
	if err != nil {
		return err
	}
	var all []string
	for _, a := range synczoo.BarrierAlgos() {
		all = append(all, a.Key)
	}

	var pts []synczoo.BarrierPoint
	for _, key := range algoKeys(*algosFlag, all) {
		algo, err := synczoo.BarrierAlgoByKey(strings.TrimSpace(key))
		if err != nil {
			return err
		}
		for _, n := range procs {
			pt, err := synczoo.RunBarrierBench(algo, synczoo.BarrierBenchOptions{
				Procs: n, Episodes: *episodes, Work: 40,
			})
			if err != nil {
				return err
			}
			if !pt.Verified() {
				return fmt.Errorf("%s p=%d violated barrier separation", algo.Key, n)
			}
			pts = append(pts, pt)
		}
	}
	switch {
	case *asJSON:
		return writeJSON(c.out, pts)
	case *asCSV:
		fmt.Fprintln(c.out, "algo,procs,episodes,cycles,rmr_local,rmr_remote,rmr_writebacks,rmr_per_episode")
		for _, pt := range pts {
			fmt.Fprintf(c.out, "%s,%d,%d,%d,%d,%d,%d,%.3f\n",
				pt.Algo, pt.Procs, pt.Episodes, pt.Cycles,
				pt.RMR.Local, pt.RMR.Remote, pt.RMR.Writebacks, pt.RMRPerEpisode())
		}
	default:
		fmt.Fprintf(c.out, "%-12s %6s %10s %14s\n", "algo", "procs", "cycles", "rmr/episode")
		for _, pt := range pts {
			fmt.Fprintf(c.out, "%-12s %6d %10d %14.2f\n", pt.Algo, pt.Procs, pt.Cycles, pt.RMRPerEpisode())
		}
	}
	return nil
}

func (c *cli) syncLitmus(args []string) error {
	fs := c.flags("sync litmus")
	seeds := fs.Int("seeds", 16, "jitter/fault seeds per algorithm")
	procs := fs.Int("procs", 4, "processor count (a power of two)")
	faults := fs.Bool("faults", false, "inject interconnect faults")
	faultRates := faultFlags(fs)
	fs.Parse(args)
	if err := checkProcs(*procs); err != nil {
		return err
	}

	var rates network.FaultRates
	if *faults {
		rates = *faultRates
	}
	seedList := litmus.ChaosSeeds(*seeds)
	fail := 0
	for _, algo := range synczoo.LockAlgos() {
		f, err := synczoo.SweepMutex(algo, *procs, 4, seedList, rates)
		status := "ok"
		if err != nil {
			status = err.Error()
			fail++
		}
		fmt.Fprintf(c.out, "mutex      %-12s seeds=%d faults=%v: %s\n", algo.Key, len(seedList), f.Any(), status)
	}
	for _, algo := range synczoo.BarrierAlgos() {
		f, err := synczoo.SweepBarrier(algo, *procs, 3, seedList, rates)
		status := "ok"
		if err != nil {
			status = err.Error()
			fail++
		}
		fmt.Fprintf(c.out, "separation %-12s seeds=%d faults=%v: %s\n", algo.Key, len(seedList), f.Any(), status)
	}
	if fail > 0 {
		return fmt.Errorf("%d algorithm(s) failed", fail)
	}
	return nil
}
