package kvapp

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ssmp/internal/litmus"
	"ssmp/internal/mem"
	"ssmp/internal/network"
	"ssmp/internal/workload"
)

func testSpec(procs int, lock string) Spec {
	s := DefaultSpec(procs)
	s.Lock = lock
	s.Keys = 128
	s.Shards = 8
	s.Ops = 160
	s.SubCap = 8
	return s
}

// TestRunOracle runs the service on both machine protocols and requires the
// sequential-consistency oracle to pass with a sensible op accounting.
func TestRunOracle(t *testing.T) {
	for _, lock := range []string{"cbl", "mcs", "ticket"} {
		t.Run(lock, func(t *testing.T) {
			spec := testSpec(4, lock)
			res, err := Run(context.Background(), spec, RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Check(); err != nil {
				t.Fatal(err)
			}
			if want := uint64(spec.Procs * spec.Ops); res.Ops != want {
				t.Fatalf("ops=%d, want %d", res.Ops, want)
			}
			if res.Gets+res.Puts+res.CASes != res.Ops {
				t.Fatalf("op mix %d+%d+%d does not sum to %d",
					res.Gets, res.Puts, res.CASes, res.Ops)
			}
			if res.All.Count() != res.Ops {
				t.Fatalf("latency samples %d, want %d", res.All.Count(), res.Ops)
			}
			if res.Puts == 0 || res.Oracle.WritesChecked == 0 {
				t.Fatalf("no writes exercised (puts=%d checked=%d)", res.Puts, res.Oracle.WritesChecked)
			}
			if res.P99() < res.P50() {
				t.Fatalf("p99 %d < p50 %d", res.P99(), res.P50())
			}
			if res.ThroughputOpsPerKCycle() <= 0 {
				t.Fatal("throughput not positive")
			}
		})
	}
}

// TestFastPathCounters pins the protocol split: on the CBL machine hot keys
// must ride the READ-UPDATE subscription fast path; on the WBI machine the
// subscription machinery must stay cold.
func TestFastPathCounters(t *testing.T) {
	cbl, err := Run(context.Background(), testSpec(4, "cbl"), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cbl.Subscribes == 0 || cbl.FastReads == 0 {
		t.Fatalf("cbl: fast path unused (subscribes=%d fast=%d)", cbl.Subscribes, cbl.FastReads)
	}
	// SubscribeAfter warm-up plus SubCap churn keep some gets off the fast
	// path, but the zipf-hot head must land a solid share on it.
	if cbl.FastReads < cbl.Gets/4 {
		t.Fatalf("cbl: zipf-hot gets mostly missed the fast path (fast=%d of %d gets)",
			cbl.FastReads, cbl.Gets)
	}
	// SubCap 8 over 128 keys forces eviction churn.
	if cbl.Unsubscribes == 0 {
		t.Fatalf("cbl: no subscription evictions with SubCap=%d over %d keys", 8, 128)
	}
	mcs, err := Run(context.Background(), testSpec(4, "mcs"), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mcs.Subscribes != 0 || mcs.FastReads != 0 || mcs.GlobalReads != 0 {
		t.Fatalf("mcs: CBL-only paths used (subscribes=%d fast=%d global=%d)",
			mcs.Subscribes, mcs.FastReads, mcs.GlobalReads)
	}
	if err := cbl.Check(); err != nil {
		t.Fatal(err)
	}
	if err := mcs.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestSeedDeterminism pins the whole run — cycles, latency quantiles,
// counters, summary text — as a pure function of (spec, options).
func TestSeedDeterminism(t *testing.T) {
	spec := testSpec(4, "cbl")
	a, err := Run(context.Background(), spec, RunOptions{Jitter: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), spec, RunOptions{Jitter: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary() != b.Summary() {
		t.Fatalf("identical runs diverged:\n%s\nvs\n%s", a.Summary(), b.Summary())
	}
	if a.Sim.Cycles != b.Sim.Cycles || a.Counters != b.Counters {
		t.Fatal("identical runs diverged in cycles or counters")
	}
}

// TestSimWorkersBitIdentical is the acceptance criterion: seed-0 results
// must be bit-identical across SimWorkers settings (serial engine vs PDES
// lanes), which requires every piece of client state to be per-processor.
func TestSimWorkersBitIdentical(t *testing.T) {
	spec := testSpec(8, "cbl")
	spec.Seed = 0
	var base *Result
	for _, workers := range []int{0, 1, 2, 4} {
		res, err := Run(context.Background(), spec, RunOptions{
			SimWorkers:   workers,
			IdealNetwork: true,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := res.Check(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			base = res
			continue
		}
		if res.Sim.Cycles != base.Sim.Cycles {
			t.Fatalf("workers=%d: cycles %d != serial %d", workers, res.Sim.Cycles, base.Sim.Cycles)
		}
		if res.Counters != base.Counters {
			t.Fatalf("workers=%d: counters diverged from serial:\n%+v\nvs\n%+v",
				workers, res.Counters, base.Counters)
		}
		if res.Summary() != base.Summary() {
			t.Fatalf("workers=%d: summary diverged from serial", workers)
		}
	}
}

// TestSimWorkersBitIdenticalContended runs the KV service on the real
// (contended) network under the PDES engine: results must be oracle-clean
// and bit-identical at every worker count >= 1, and the contention must
// actually register (nonzero queueing). The reference is workers=1 — the
// lane-keyed event order is its own deterministic discipline, distinct from
// the serial engine's.
func TestSimWorkersBitIdenticalContended(t *testing.T) {
	spec := testSpec(8, "cbl")
	spec.Seed = 0
	var base *Result
	for _, workers := range []int{1, 2, 4} {
		res, err := Run(context.Background(), spec, RunOptions{SimWorkers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := res.Check(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base == nil {
			if res.Sim.MeanNetQueueing == 0 {
				t.Fatal("contended run saw no queueing — contention path not exercised")
			}
			base = res
			continue
		}
		if res.Sim.Cycles != base.Sim.Cycles {
			t.Fatalf("workers=%d: cycles %d != workers=1 %d", workers, res.Sim.Cycles, base.Sim.Cycles)
		}
		if res.Sim.MeanNetQueueing != base.Sim.MeanNetQueueing {
			t.Fatalf("workers=%d: queueing %v != workers=1 %v",
				workers, res.Sim.MeanNetQueueing, base.Sim.MeanNetQueueing)
		}
		if res.Counters != base.Counters {
			t.Fatalf("workers=%d: counters diverged from workers=1:\n%+v\nvs\n%+v",
				workers, res.Counters, base.Counters)
		}
		if res.Summary() != base.Summary() {
			t.Fatalf("workers=%d: summary diverged from workers=1", workers)
		}
	}
}

// TestSimWorkersBitIdenticalChaos pins the lane engine on the benchmark's
// KV shape: 64 nodes, 256 keys on 16 shards, the contended network and
// the reliable transport under chaos faults, with jitter off and on. The
// whole Result (cycles, latency histograms, counters, fault and transport
// counters, oracle report) and its Summary must be identical at 1, 2 and
// 4 workers.
func TestSimWorkersBitIdenticalChaos(t *testing.T) {
	spec := DefaultSpec(64)
	spec.Keys, spec.Shards, spec.Sessions, spec.Ops, spec.SubCap = 256, 16, 2, 64, 32
	for _, jitter := range []uint64{0, 9} {
		var base *Result
		for _, workers := range []int{1, 2, 4} {
			res, err := Run(context.Background(), spec, RunOptions{
				Jitter:     jitter,
				Faults:     network.FaultConfig{Seed: 5, Rates: litmus.DefaultChaosRates()},
				SimWorkers: workers,
			})
			if err != nil {
				t.Fatalf("jitter=%d workers=%d: %v", jitter, workers, err)
			}
			if err := res.Check(); err != nil {
				t.Fatalf("jitter=%d workers=%d: %v", jitter, workers, err)
			}
			if base == nil {
				if res.Sim.Faults.Retries == 0 || res.Sim.MeanNetQueueing == 0 {
					t.Fatalf("jitter=%d: no retransmission or no queueing; the test proves nothing", jitter)
				}
				base = res
				continue
			}
			if res.Counters != base.Counters {
				t.Fatalf("jitter=%d workers=%d: counters diverged from workers=1:\n%+v\nvs\n%+v",
					jitter, workers, res.Counters, base.Counters)
			}
			if !reflect.DeepEqual(res, base) {
				t.Fatalf("jitter=%d workers=%d: result diverged from workers=1:\n%+v\nvs\n%+v",
					jitter, workers, res.Sim, base.Sim)
			}
			if res.Summary() != base.Summary() {
				t.Fatalf("jitter=%d workers=%d: summary diverged from workers=1", jitter, workers)
			}
		}
	}
}

// TestClosedLoop exercises the closed-loop population and the pure-CAS mix.
func TestClosedLoop(t *testing.T) {
	spec := testSpec(4, "cbl")
	spec.OpenLoop = false
	spec.GetFrac, spec.PutFrac = 0.5, 0 // rest CAS
	res, err := Run(context.Background(), spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.CASes == 0 {
		t.Fatal("no CAS ops in a 50% CAS mix")
	}
	if res.Puts != 0 {
		t.Fatalf("puts=%d with PutFrac=0", res.Puts)
	}
}

// TestNoSubscriptions pins SubCap=0 as "fast path off": all CBL gets go
// READ-GLOBAL and the oracle still holds.
func TestNoSubscriptions(t *testing.T) {
	spec := testSpec(4, "cbl")
	spec.SubCap = 0
	res, err := Run(context.Background(), spec, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if res.Subscribes != 0 || res.FastReads != 0 {
		t.Fatalf("SubCap=0 still subscribed (subscribes=%d fast=%d)", res.Subscribes, res.FastReads)
	}
	if res.GlobalReads != res.Gets {
		t.Fatalf("SubCap=0: %d gets but %d global reads", res.Gets, res.GlobalReads)
	}
}

// TestSpecValidate covers the rejection paths.
func TestSpecValidate(t *testing.T) {
	mut := func(f func(*Spec)) Spec {
		s := DefaultSpec(4)
		f(&s)
		return s
	}
	bad := []struct {
		name string
		spec Spec
		frag string
	}{
		{"procs", mut(func(s *Spec) { s.Procs = 3 }), "power of two"},
		{"lock", mut(func(s *Spec) { s.Lock = "nope" }), "unknown lock"},
		{"keys", mut(func(s *Spec) { s.Keys = 0 }), "Keys"},
		{"shards", mut(func(s *Spec) { s.Shards = s.Keys + 1 }), "Shards"},
		{"ops", mut(func(s *Spec) { s.Ops = 0 }), "Ops"},
		{"mix", mut(func(s *Spec) { s.GetFrac = 0.9; s.PutFrac = 0.2 }), "mix"},
		{"theta", mut(func(s *Spec) { s.Theta = -1 }), "Theta"},
		{"arrival", mut(func(s *Spec) { s.Arrival.MeanGap = 0 }), "bursty"},
		{"subscribe", mut(func(s *Spec) { s.SubscribeAfter = 0 }), "SubscribeAfter"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(context.Background(), tc.spec, RunOptions{}); err == nil {
				t.Fatal("invalid spec accepted")
			} else if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not mention %q", err, tc.frag)
			}
		})
	}
	if err := DefaultSpec(4).Validate(); err != nil {
		t.Fatalf("default spec invalid: %v", err)
	}
}

// TestOracleCatches feeds the oracle hand-built histories for every
// violation class it claims to detect — an oracle that cannot fail is not
// evidence.
func TestOracleCatches(t *testing.T) {
	cases := []struct {
		name string
		logs [][]opRec
		frag string
	}{
		{"duplicate write", [][]opRec{{
			{kind: OpPut, key: 1, read: 0, wrote: 1},
			{kind: OpPut, key: 1, read: 0, wrote: 1},
		}}, "written twice"},
		{"gapped writes", [][]opRec{{
			{kind: OpPut, key: 1, read: 0, wrote: 1},
			{kind: OpPut, key: 1, read: 2, wrote: 3},
		}}, "dense range"},
		{"thin air read", [][]opRec{{
			{kind: OpPut, key: 2, read: 0, wrote: 1},
			{kind: OpGet, key: 2, read: 5},
		}}, "thin air"},
		{"backwards view", [][]opRec{
			{{kind: OpPut, key: 3, read: 0, wrote: 1}, {kind: OpPut, key: 3, read: 1, wrote: 2}},
			{{kind: OpGet, key: 3, read: 2}, {kind: OpGet, key: 3, read: 1}},
		}, "backwards"},
		{"key range", [][]opRec{{
			{kind: OpGet, key: 99, read: 0},
		}}, "outside key space"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := checkOracle(8, tc.logs, nil)
			if len(rep.Violations) == 0 {
				t.Fatal("oracle passed a corrupt history")
			}
			if !strings.Contains(rep.Violations[0], tc.frag) {
				t.Fatalf("violation %q does not mention %q", rep.Violations[0], tc.frag)
			}
			if rep.Verdict() == "pass" {
				t.Fatal("verdict pass with violations")
			}
		})
	}

	// Clean history + wrong final memory = flush violation (CBL check).
	logs := [][]opRec{{
		{kind: OpPut, key: 0, read: 0, wrote: 1},
		{kind: OpGet, key: 0, read: 1},
	}}
	rep := checkOracle(8, logs, func(key int) (mem.Word, bool) { return 0, true })
	if len(rep.Violations) == 0 || !strings.Contains(rep.Violations[0], "globally visible") {
		t.Fatalf("stale home memory not caught: %v", rep.Violations)
	}
	rep = checkOracle(8, logs, func(key int) (mem.Word, bool) { return 1, true })
	if len(rep.Violations) != 0 {
		t.Fatalf("clean history rejected: %v", rep.Violations)
	}
	if rep.Verdict() != "pass" {
		t.Fatalf("verdict %q for clean history", rep.Verdict())
	}
}

// TestArrivalScheduleIndependence pins the open-loop invariant: the arrival
// schedule is fixed by the spec alone, so two lock schemes see the same
// offered load (same op counts), even though service times differ.
func TestArrivalScheduleIndependence(t *testing.T) {
	var mixes []string
	for _, lock := range []string{"cbl", "mcs"} {
		spec := testSpec(4, lock)
		res, err := Run(context.Background(), spec, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		mixes = append(mixes, fmt.Sprintf("%d/%d/%d", res.Gets, res.Puts, res.CASes))
	}
	if mixes[0] != mixes[1] {
		t.Fatalf("op mix differs across lock schemes: %s vs %s", mixes[0], mixes[1])
	}
}

// TestZipfReuse double-checks the kvapp hashing spreads shards: with the
// default spec every shard must own at least one key.
func TestShardCoverage(t *testing.T) {
	spec := DefaultSpec(4)
	seen := make(map[int]bool)
	for k := 0; k < spec.Keys; k++ {
		sh := spec.shardOf(k)
		if sh < 0 || sh >= spec.Shards {
			t.Fatalf("key %d hashed to shard %d of %d", k, sh, spec.Shards)
		}
		seen[sh] = true
	}
	if len(seen) != spec.Shards {
		t.Fatalf("only %d of %d shards own keys", len(seen), spec.Shards)
	}
	_ = workload.NewZipf(spec.Keys, spec.Theta) // spec params must be sampler-legal
}
