package kvapp

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"ssmp/internal/core"
	"ssmp/internal/litmus"
	"ssmp/internal/network"
)

// reuseFaults is the chaos fault plane seeded with seed; 0 turns it off.
func reuseFaults(seed uint64) network.FaultConfig {
	if seed == 0 {
		return network.FaultConfig{}
	}
	return network.FaultConfig{Seed: seed, Rates: litmus.DefaultChaosRates()}
}

// TestRunReuseMatchesFresh runs a sequence of specs back to back on one
// machine, reset from run to run, and on a fresh machine each, for a CBL
// and a WBI lock at SimWorkers 0 and 2. The sequence turns faults off and
// on, changes the fault seed from run to run, and changes the workload
// seed and jitter with it. Each run's whole Result — simulation and fault
// counters, latency histograms, client counters and oracle report — must
// match the fresh run's, and so must Run's, whose machine comes from the
// pool.
func TestRunReuseMatchesFresh(t *testing.T) {
	ctx := context.Background()
	for _, lock := range []string{"cbl", "mcs"} {
		for _, workers := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", lock, workers), func(t *testing.T) {
				var held *core.Machine
				for i, fs := range []uint64{0, 3, 8, 0, 5} {
					spec := testSpec(8, lock)
					spec.Seed = uint64(40 + i)
					opts := RunOptions{SimWorkers: workers, Jitter: uint64(i%2) * 7, Faults: reuseFaults(fs)}
					cfg, algo, err := spec.config(opts)
					if err != nil {
						t.Fatal(err)
					}
					fresh, err := runOn(ctx, core.NewMachine(cfg), spec, algo, opts)
					if err != nil {
						t.Fatalf("run %d fresh: %v", i, err)
					}
					if err := fresh.Check(); err != nil {
						t.Fatalf("run %d: %v", i, err)
					}
					if f := fresh.Sim.Faults; fs != 0 && (f.Dropped == 0 || f.Retries == 0) {
						t.Fatalf("run %d: fault counters %+v: the run must drop and retransmit", i, f)
					}
					if held == nil {
						held = core.NewMachine(cfg)
					} else {
						held.Reset(cfg)
					}
					reused, err := runOn(ctx, held, spec, algo, opts)
					if err != nil {
						t.Fatalf("run %d on the reset machine: %v", i, err)
					}
					if !reflect.DeepEqual(reused, fresh) {
						t.Fatalf("run %d (faults %v) on the reset machine:\n%+v\nfresh:\n%+v", i, opts.Faults, reused, fresh)
					}
					pooled, err := Run(ctx, spec, opts)
					if err != nil {
						t.Fatalf("run %d through the pool: %v", i, err)
					}
					if !reflect.DeepEqual(pooled, fresh) {
						t.Fatalf("run %d (faults %v) through the pool:\n%+v\nfresh:\n%+v", i, opts.Faults, pooled, fresh)
					}
				}
			})
		}
	}
}

// BenchmarkRun is the KV service's layer benchmark at the shape of the
// whole-system benchmark's kv-chaos-lanes workload (bench/kv.go): 64
// nodes on two PDES lane workers, 256 keys on 16 CBL-locked shards, 2
// sessions and 64 ops a node, 32 subscriptions a node, under chaos faults
// whose seed changes every run. Its runs take machines from the pool and
// put them back, as the workload's do; one run before the timer builds the
// machine, so allocs/op counts what a run on a reused machine makes.
func BenchmarkRun(b *testing.B) {
	spec := DefaultSpec(64)
	spec.Keys, spec.Shards, spec.Sessions, spec.Ops, spec.SubCap = 256, 16, 2, 64, 32
	run := func(i int) {
		spec.Seed = uint64(i) + 1
		opts := RunOptions{SimWorkers: 2, Faults: reuseFaults(uint64(2*i + 1))}
		res, err := Run(context.Background(), spec, opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Check(); err != nil {
			b.Fatal(err)
		}
	}
	run(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i + 1)
	}
}
