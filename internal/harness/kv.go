package harness

import "ssmp/internal/kvapp"

// The KV figure family is the north-star application workload (ROADMAP
// item 5): the in-sim key-value service under its default read-mostly
// client population, swept across the processor counts for the two lock
// managers the contention literature predicts apart — the paper's hardware
// CBL lock (with the READ-UPDATE fast path for gets) and software MCS on
// the WBI machine. Three figures come out of one sweep: p50 latency, p99
// latency, and operation throughput against node count. Every cell's
// sequential-consistency oracle is checked; a violation fails the sweep.

// kvLocks are the lock managers the KV sweep compares.
var kvLocks = []string{"cbl", "mcs"}

// kvSpec is one sweep cell's client population: the default read-mostly
// mix, sized so a full sweep stays in harness time budgets.
func (o Options) kvSpec(procs int, lock string) kvapp.Spec {
	s := kvapp.DefaultSpec(procs)
	s.Lock = lock
	s.Keys = 256
	s.Shards = 16
	s.Sessions = 2
	s.Ops = 96
	s.SubCap = 32
	s.Seed = o.Seed
	return s
}

// KVFigures sweeps the key-value service and returns the latency and
// throughput figures.
func (o Options) KVFigures() (p50, p99, thr Figure, err error) {
	series, err := o.grid(kvLocks, 3, func(row, n int) ([]float64, error) {
		lock := kvLocks[row]
		res, err := kvapp.Run(o.context(), o.kvSpec(n, lock), kvapp.RunOptions{
			Jitter:       o.Jitter,
			Faults:       o.Faults,
			SimWorkers:   o.SimWorkers,
			IdealNetwork: o.IdealNetwork,
		})
		if err != nil {
			return nil, err
		}
		if err := res.Check(); err != nil {
			return nil, err
		}
		o.logf("  kv %s procs=%d: p50=%d p99=%d %.3f ops/kcycle",
			lock, n, res.P50(), res.P99(), res.ThroughputOpsPerKCycle())
		return []float64{float64(res.P50()), float64(res.P99()), res.ThroughputOpsPerKCycle()}, nil
	})
	if err != nil {
		return Figure{}, Figure{}, Figure{}, err
	}
	p50 = Figure{
		Name:   "KV-P50",
		Title:  "key-value service p50 op latency (cycles) vs node count (extension)",
		XLabel: "procs",
		Series: series[0],
	}
	p99 = Figure{
		Name:   "KV-P99",
		Title:  "key-value service p99 op latency (cycles) vs node count (extension)",
		XLabel: "procs",
		Series: series[1],
	}
	thr = Figure{
		Name:   "KV-Throughput",
		Title:  "key-value service operations per 1000 cycles vs node count (extension)",
		XLabel: "procs",
		Series: series[2],
	}
	return p50, p99, thr, nil
}
