package harness

import (
	"fmt"

	"ssmp/internal/synczoo"
)

// The synchronization-zoo sweeps are an extension beyond the paper's
// figures: every registered lock and barrier algorithm (software algorithms
// over the Table-1 primitives next to the paper's hardware CBL lock and
// barrier) runs the same contention workload across the processor sweep,
// and the results are scored in remote memory references per operation —
// the currency in which Mellor-Crummey & Scott's O(1)-remote-references
// claim for queue locks is stated. The RMR figure makes the claim visible:
// the mcs and cbl rows stay flat across the sweep while tas grows with the
// processor count.

type zooViolation struct {
	algo        string
	procs       int
	final, want uint64
}

func (v *zooViolation) Error() string {
	return fmt.Sprintf("harness: synczoo %s p=%d violated its witness (final %d, want %d)",
		v.algo, v.procs, v.final, v.want)
}

// SyncZooLockFigures reproduces the MCS separation as two figures over one
// sweep: remote memory references per acquisition, and acquisition
// throughput, against processor count for every lock algorithm in the zoo.
func (o Options) SyncZooLockFigures() (rmr Figure, throughput Figure, err error) {
	iters := o.Episodes
	if iters == 0 {
		iters = 8
	}
	algos := synczoo.LockAlgos()
	keys := make([]string, len(algos))
	for i, algo := range algos {
		keys[i] = algo.Key
	}
	series, err := o.grid(keys, 2, func(row, n int) ([]float64, error) {
		algo := algos[row]
		pt, err := synczoo.RunLockBenchContext(o.context(), algo, synczoo.LockBenchOptions{
			Procs: n, Iters: iters, Crit: 16, Delay: 32, Faults: o.Faults,
		})
		if err != nil {
			return nil, err
		}
		if !pt.Verified() {
			return nil, &zooViolation{algo: algo.Key, procs: n, final: uint64(pt.Final), want: uint64(pt.Want)}
		}
		o.logf("  synczoo lock %s procs=%d: %.2f rmr/acq, %.2f acq/kcycle",
			algo.Key, n, pt.RMRPerAcq(), pt.AcqPerKCycle())
		return []float64{pt.RMRPerAcq(), pt.AcqPerKCycle()}, nil
	})
	if err != nil {
		return Figure{}, Figure{}, err
	}
	rmr = Figure{
		Name:   "SyncZoo-RMR",
		Title:  "remote memory references per lock acquisition (extension)",
		XLabel: "procs",
		Series: series[0],
	}
	throughput = Figure{
		Name:   "SyncZoo-Throughput",
		Title:  "lock acquisitions per 1000 cycles (extension)",
		XLabel: "procs",
		Series: series[1],
	}
	return rmr, throughput, nil
}

// SyncZooBarrierFigure sweeps the barrier zoo: remote memory references per
// participant per episode against processor count.
func (o Options) SyncZooBarrierFigure() (Figure, error) {
	episodes := o.Episodes
	if episodes == 0 {
		episodes = 4
	}
	algos := synczoo.BarrierAlgos()
	keys := make([]string, len(algos))
	for i, algo := range algos {
		keys[i] = algo.Key
	}
	series, err := o.grid(keys, 1, func(row, n int) ([]float64, error) {
		algo := algos[row]
		pt, err := synczoo.RunBarrierBenchContext(o.context(), algo, synczoo.BarrierBenchOptions{
			Procs: n, Episodes: episodes, Work: 40, Faults: o.Faults,
		})
		if err != nil {
			return nil, err
		}
		if !pt.Verified() {
			return nil, &zooViolation{algo: algo.Key, procs: n}
		}
		o.logf("  synczoo barrier %s procs=%d: %.2f rmr/episode", algo.Key, n, pt.RMRPerEpisode())
		return []float64{pt.RMRPerEpisode()}, nil
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		Name:   "SyncZoo-Barrier",
		Title:  "remote memory references per participant per barrier episode (extension)",
		XLabel: "procs",
		Series: series[0],
	}, nil
}
