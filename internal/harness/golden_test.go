package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"ssmp/internal/network"
	"ssmp/internal/workload"
)

// updateGolden regenerates testdata/golden.json from the current kernel:
//
//	go test ./internal/harness -run TestGoldenDigests -update-golden
//
// The committed digests are the determinism contract: any change to the
// event kernel, the protocol controllers, or the workload models that
// perturbs a single message ordering shows up here as a digest mismatch.
// Kernel optimizations must keep every digest bit-identical.
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden digest fixture")

const goldenPath = "testdata/golden.json"

// goldenOptions is a reduced but representative sweep: both protocols, both
// consistency models, both workload models, sync primitives, and enough
// processors (16) for real network contention — small enough to run in a
// few seconds.
func goldenOptions() Options {
	return Options{
		Procs:     []int{2, 4, 8, 16},
		Episodes:  4,
		Tasks:     48,
		SpawnProb: 0.2,
		Seed:      42,
		Params:    workload.DefaultParams(),
	}
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// goldenDigests runs every table and figure the fixture covers and returns
// name -> SHA-256 of the serialized output.
func goldenDigests(t *testing.T, o Options) map[string]string {
	t.Helper()
	out := map[string]string{}
	for n := 4; n <= 7; n++ {
		f, err := o.FigureByNumber(n)
		if err != nil {
			t.Fatalf("figure %d: %v", n, err)
		}
		out[fmt.Sprintf("figure%d", n)] = digest(f.Table() + "\n" + f.CSV())
	}
	util, err := o.UtilizationFigure(workload.MediumGrain)
	if err != nil {
		t.Fatalf("utilization figure: %v", err)
	}
	out["utilization"] = digest(util.Table() + "\n" + util.CSV())
	t2, err := o.Table2Sim(8, 10)
	if err != nil {
		t.Fatalf("table 2: %v", err)
	}
	out["table2"] = digest(FormatTable2Sim(8, 10, t2))
	t3, err := o.Table3Sim(8)
	if err != nil {
		t.Fatalf("table 3: %v", err)
	}
	out["table3"] = digest(FormatTable3Sim(8, t3))
	rmr, thr, err := o.SyncZooLockFigures()
	if err != nil {
		t.Fatalf("synczoo lock figures: %v", err)
	}
	out["synczoo-rmr"] = digest(rmr.Table() + "\n" + rmr.CSV())
	out["synczoo-throughput"] = digest(thr.Table() + "\n" + thr.CSV())
	bar, err := o.SyncZooBarrierFigure()
	if err != nil {
		t.Fatalf("synczoo barrier figure: %v", err)
	}
	out["synczoo-barrier"] = digest(bar.Table() + "\n" + bar.CSV())
	p50, p99, thr, err := o.KVFigures()
	if err != nil {
		t.Fatalf("kv figures: %v", err)
	}
	out["kv-p50"] = digest(p50.Table() + "\n" + p50.CSV())
	out["kv-p99"] = digest(p99.Table() + "\n" + p99.CSV())
	out["kv-throughput"] = digest(thr.Table() + "\n" + thr.CSV())
	return out
}

// TestGoldenDigests locks the simulator's observable outputs. A mismatch
// means a semantics change: either revert it, or — if the change is an
// intentional model fix — regenerate with -update-golden and say why in the
// commit.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is a few seconds; skipped in -short")
	}
	got := goldenDigests(t, goldenOptions())

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		enc, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading fixture (generate with -update-golden): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}

	var names []string
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] == "" {
			t.Errorf("%s: fixture entry has no generated counterpart", name)
			continue
		}
		if got[name] != want[name] {
			t.Errorf("%s: digest %s, want %s — simulator output changed", name, got[name][:16], want[name][:16])
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: generated digest missing from fixture (regenerate with -update-golden)", name)
		}
	}
}

// TestPDESWorkerDigestEquality pins the parallel engine's determinism
// contract at the harness level: the fully assembled figure digests are
// bit-identical across SimWorkers {1, 2, 8}, for every combination of
// network model (ideal Ω, contended Ω, contended mesh — the contended
// models exercise the window-barrier port arbiter), jitter seed, and fault
// seed. Note the reference is workers=1, not the serial engine: the
// lane-keyed event discipline is a different (equally valid) tie-break
// order, deterministic in its own right.
func TestPDESWorkerDigestEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed worker sweep is a few seconds; skipped in -short")
	}
	base := goldenOptions()
	base.Procs = []int{2, 4, 8}
	base.Tasks = 24
	nets := map[string]func(*Options){
		"ideal-omega":     func(o *Options) { o.IdealNetwork = true },
		"contended-omega": func(o *Options) {},
		"contended-mesh":  func(o *Options) { o.Topology = network.TopMesh },
	}
	for netName, netMod := range nets {
		for _, jitter := range []uint64{0, 7} {
			for _, faultSeed := range []uint64{0, 42} {
				o := base
				netMod(&o)
				o.Jitter = jitter
				if faultSeed != 0 {
					o.Faults = network.FaultConfig{
						Seed:  faultSeed,
						Rates: network.FaultRates{Drop: 0.01, Dup: 0.01, Delay: 0.03},
					}
				}
				var ref map[string]string
				for _, workers := range []int{1, 2, 8} {
					ow := o
					ow.SimWorkers = workers
					got := map[string]string{}
					for _, n := range []int{4, 6} {
						f, err := ow.FigureByNumber(n)
						if err != nil {
							t.Fatalf("net=%s jitter=%d faults=%d workers=%d figure %d: %v",
								netName, jitter, faultSeed, workers, n, err)
						}
						got[fmt.Sprintf("figure%d", n)] = digest(f.Table() + "\n" + f.CSV())
					}
					if ref == nil {
						ref = got
						continue
					}
					for name, w := range ref {
						if got[name] != w {
							t.Errorf("net=%s jitter=%d faults=%d workers=%d %s: digest %s, want %s — worker count leaked into results",
								netName, jitter, faultSeed, workers, name, got[name][:16], w[:16])
						}
					}
				}
			}
		}
	}
}

// TestParallelSweepMatchesSerial pins the fan's determinism contract: the
// same sweep assembled from a serial run (Parallelism=1, the historic order)
// and from a maximally concurrent run must be bit-identical.
func TestParallelSweepMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the golden sweep twice; skipped in -short")
	}
	serial := goldenOptions()
	serial.Parallelism = 1
	parallel := goldenOptions()
	parallel.Parallelism = 8

	want := goldenDigests(t, serial)
	got := goldenDigests(t, parallel)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: parallel digest %s, serial %s — fan is not order-independent",
				name, got[name][:16], w[:16])
		}
	}
}
