package harness

import (
	"fmt"

	"ssmp/internal/fan"
	"ssmp/internal/metrics"
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

// syncZooLockSweep runs the lock contention workload for every registered
// algorithm at every processor count and returns the points in
// (proc, algo) grid order.
func (o Options) syncZooLockSweep(iters int) ([]synczoo.LockPoint, error) {
	algos := synczoo.LockAlgos()
	pts := make([]synczoo.LockPoint, len(o.Procs)*len(algos))
	err := fan.Run(len(pts), o.Parallelism, func(i int) error {
		n, algo := o.Procs[i/len(algos)], algos[i%len(algos)]
		pt, err := synczoo.RunLockBenchContext(o.context(), algo, synczoo.LockBenchOptions{
			Procs: n, Iters: iters, Crit: 16, Delay: 32, Faults: o.Faults,
		})
		if err != nil {
			return err
		}
		if !pt.Verified() {
			return &zooViolation{algo: algo.Key, procs: n, final: uint64(pt.Final), want: uint64(pt.Want)}
		}
		pts[i] = pt
		o.logf("  synczoo lock %s procs=%d: %.2f rmr/acq, %.2f acq/kcycle",
			algo.Key, n, pt.RMRPerAcq(), pt.AcqPerKCycle())
		return nil
	})
	return pts, err
}

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
	pts, err := o.syncZooLockSweep(iters)
	if err != nil {
		return Figure{}, Figure{}, err
	}
	algos := synczoo.LockAlgos()
	rmrSeries := make([]*metrics.Series, len(algos))
	thrSeries := make([]*metrics.Series, len(algos))
	for i, algo := range algos {
		rmrSeries[i] = &metrics.Series{Name: algo.Key}
		thrSeries[i] = &metrics.Series{Name: algo.Key}
	}
	for i, pt := range pts {
		x := float64(o.Procs[i/len(algos)])
		rmrSeries[i%len(algos)].Add(x, pt.RMRPerAcq())
		thrSeries[i%len(algos)].Add(x, pt.AcqPerKCycle())
	}
	rmr = Figure{
		Name:   "SyncZoo-RMR",
		Title:  "remote memory references per lock acquisition (extension)",
		XLabel: "procs",
		Series: rmrSeries,
	}
	throughput = Figure{
		Name:   "SyncZoo-Throughput",
		Title:  "lock acquisitions per 1000 cycles (extension)",
		XLabel: "procs",
		Series: thrSeries,
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
	pts := make([]synczoo.BarrierPoint, len(o.Procs)*len(algos))
	err := fan.Run(len(pts), o.Parallelism, func(i int) error {
		n, algo := o.Procs[i/len(algos)], algos[i%len(algos)]
		pt, err := synczoo.RunBarrierBenchContext(o.context(), algo, synczoo.BarrierBenchOptions{
			Procs: n, Episodes: episodes, Work: 40, Faults: o.Faults,
		})
		if err != nil {
			return err
		}
		if !pt.Verified() {
			return &zooViolation{algo: algo.Key, procs: n}
		}
		pts[i] = pt
		o.logf("  synczoo barrier %s procs=%d: %.2f rmr/episode", algo.Key, n, pt.RMRPerEpisode())
		return nil
	})
	if err != nil {
		return Figure{}, err
	}
	series := make([]*metrics.Series, len(algos))
	for i, algo := range algos {
		series[i] = &metrics.Series{Name: algo.Key}
	}
	for i, pt := range pts {
		series[i%len(algos)].Add(float64(o.Procs[i/len(algos)]), pt.RMRPerEpisode())
	}
	return Figure{
		Name:   "SyncZoo-Barrier",
		Title:  "remote memory references per participant per barrier episode (extension)",
		XLabel: "procs",
		Series: series,
	}, nil
}
