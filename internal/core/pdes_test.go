package core

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"ssmp/internal/mem"
	"ssmp/internal/network"
	"ssmp/internal/sim"
)

// pdesProgs builds a deterministic mixed workload: per-proc compute,
// buffered global writes, a hardware barrier, cross-node global reads, and
// a lock-protected shared counter — every machine layer the PDES lane
// partition has to keep coherent. The WBI machine has no CBL primitives,
// so it substitutes coherent reads/writes and an RMW fetch-and-add.
func pdesProgs(proto Protocol, nodes int) []Program {
	progs := make([]Program, nodes)
	const counter mem.Addr = 8192
	for i := range progs {
		i := i
		progs[i] = func(p *Proc) {
			for it := 0; it < 12; it++ {
				p.Think(sim.Time(3 + i%5))
				if proto == ProtoWBI {
					p.Write(mem.Addr(64*i), mem.Word(it*31+i))
					_ = p.Read(mem.Addr(64 * ((i + 1) % nodes)))
					if it%4 == i%4 {
						p.RMW(counter, func(w mem.Word) mem.Word { return w + 1 })
					}
					continue
				}
				p.WriteGlobal(mem.Addr(64*i), mem.Word(it*31+i))
				p.Barrier(4096, nodes)
				_ = p.ReadGlobal(mem.Addr(64 * ((i + 1) % nodes)))
				if it%4 == i%4 {
					p.WriteLock(counter)
					v := p.Read(counter)
					p.Write(counter, v+1)
					p.Unlock(counter)
				}
			}
		}
	}
	return progs
}

// runPDES runs pdesProgs on cfg at the given worker count and checks the
// machine ran the lanes it should: one for a serial run (workers 0, or the
// bus topology), else one per node.
func runPDES(t *testing.T, cfg Config, workers int) Result {
	t.Helper()
	cfg.SimWorkers = workers
	m := NewMachine(cfg)
	res, err := m.Run(pdesProgs(cfg.Protocol, cfg.Nodes))
	if err != nil {
		t.Fatalf("workers %d: %v", workers, err)
	}
	lanes := cfg.Nodes
	if workers == 0 || cfg.Topology == network.TopBus {
		lanes = 1
	}
	if m.Lanes() != lanes {
		t.Fatalf("workers %d: expected %d lanes, got %d", workers, lanes, m.Lanes())
	}
	return res
}

// pdesDraw draws one machine configuration for the worker-count sweep:
// protocol and consistency, topology (Ω, mesh, bus), ideal or contended
// network, jitter, faults, and 2 to 16 nodes.
func pdesDraw(r *rand.Rand) (string, Config) {
	nodes := []int{2, 4, 8, 16}[r.IntN(4)]
	cfg := DefaultConfig(nodes)
	name := fmt.Sprintf("n%d", nodes)
	if r.IntN(2) == 0 {
		cfg.Protocol = ProtoWBI
		name += "-wbi"
	} else {
		name += "-cbl"
	}
	if r.IntN(3) == 0 {
		cfg.Consistency = SC
		name += "-sc"
	}
	cfg.Topology = []network.Topology{network.TopOmega, network.TopMesh, network.TopBus}[r.IntN(3)]
	name += "-" + cfg.Topology.String()
	if r.IntN(2) == 0 {
		cfg.IdealNetwork = true
		name += "-ideal"
	}
	if r.IntN(2) == 0 {
		cfg.Jitter = 1 + r.Uint64N(1<<16)
		name += fmt.Sprintf("-j%d", cfg.Jitter)
	}
	if r.IntN(2) == 0 {
		cfg.Faults = network.FaultConfig{Seed: 1 + r.Uint64N(1<<16), Rates: network.FaultRates{
			Drop:  0.04 * r.Float64(),
			Dup:   0.04 * r.Float64(),
			Delay: 0.08 * r.Float64(),
		}}
		name += fmt.Sprintf("-f%d", cfg.Faults.Seed)
	}
	return name, cfg
}

// TestPDESWorkerCountEquality is the machine-level determinism bar, swept
// over seeded draws of protocol × topology × ideal/contended × jitter ×
// faults × nodes. For every draw the full Result — cycles, events,
// messages, latencies, queueing, utilization, fault and RMR totals — is
// bit-identical at workers 1, 2 and 8, and wherever the machine runs one
// lane (workers 0, or the bus at any worker count) it equals the workers-0
// result. The named cases are fixed draws that predate the sweep.
func TestPDESWorkerCountEquality(t *testing.T) {
	base := DefaultConfig(8)
	base.IdealNetwork = true
	fixed := map[string]func(*Config){
		"cbl":    func(c *Config) {},
		"cbl-sc": func(c *Config) { c.Consistency = SC },
		"wbi":    func(c *Config) { c.Protocol = ProtoWBI },
		"jitter": func(c *Config) { c.Jitter = 77 },
		"faults": func(c *Config) {
			c.Faults = network.FaultConfig{Seed: 42, Rates: network.FaultRates{Drop: 0.02, Dup: 0.02, Delay: 0.05}}
		},
		"jitter-faults": func(c *Config) {
			c.Jitter = 5
			c.Faults = network.FaultConfig{Seed: 9, Rates: network.FaultRates{Drop: 0.01, Dup: 0.03, Delay: 0.04}}
		},
		"contended":      func(c *Config) { c.IdealNetwork = false },
		"contended-mesh": func(c *Config) { c.IdealNetwork = false; c.Topology = network.TopMesh },
		"contended-jitter-faults": func(c *Config) {
			c.IdealNetwork = false
			c.Jitter = 5
			c.Faults = network.FaultConfig{Seed: 9, Rates: network.FaultRates{Drop: 0.01, Dup: 0.03, Delay: 0.04}}
		},
		"contended-mesh-jitter-faults": func(c *Config) {
			c.IdealNetwork = false
			c.Topology = network.TopMesh
			c.Jitter = 13
			c.Faults = network.FaultConfig{Seed: 21, Rates: network.FaultRates{Drop: 0.02, Dup: 0.02, Delay: 0.05}}
		},
	}
	for name, mod := range fixed {
		cfg := base
		mod(&cfg)
		t.Run(name, func(t *testing.T) {
			ref := checkWorkerCountEquality(t, cfg)
			if !cfg.IdealNetwork && ref.MeanNetQueueing == 0 {
				t.Fatalf("contended case saw no queueing — contention path not exercised: %+v", ref)
			}
		})
	}
	draws := 96
	if testing.Short() {
		draws = 16
	}
	r := rand.New(rand.NewPCG(0x5eed, 17))
	for i := 0; i < draws; i++ {
		name, cfg := pdesDraw(r)
		t.Run(fmt.Sprintf("draw%02d-%s", i, name), func(t *testing.T) { checkWorkerCountEquality(t, cfg) })
	}
}

// checkWorkerCountEquality asserts the property TestPDESWorkerCountEquality
// sweeps of one configuration and returns the workers-1 result.
func checkWorkerCountEquality(t *testing.T, cfg Config) Result {
	t.Helper()
	ref := runPDES(t, cfg, 1)
	for _, w := range []int{2, 8} {
		if got := runPDES(t, cfg, w); fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Fatalf("workers %d diverges:\n got %+v\nwant %+v", w, got, ref)
		}
	}
	serial := runPDES(t, cfg, 0)
	if cfg.Topology == network.TopBus && fmt.Sprint(serial) != fmt.Sprint(ref) {
		t.Fatalf("bus at workers 1 differs from workers 0:\n got %+v\nwant %+v", ref, serial)
	}
	return ref
}

// TestPDESFaultsRecover checks the per-view reliable transport actually
// exercises recovery under lane mode (not just zero counters).
func TestPDESFaultsRecover(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.IdealNetwork = true
	cfg.Faults = network.FaultConfig{Seed: 1234, Rates: network.FaultRates{Drop: 0.05, Dup: 0.05, Delay: 0.1}}
	res := runPDES(t, cfg, 4)
	f := res.Faults
	if f.Dropped == 0 || f.Retries == 0 {
		t.Fatalf("fault plane inert under lane mode: %+v", f)
	}
	if f.DupSuppressed == 0 {
		t.Fatalf("expected duplicate suppression, got %+v", f)
	}
}

// TestPDESContendedRunsLanes: contention is lane-safe since the
// window-barrier arbiter — a contended (non-ideal) network runs one lane
// per node.
func TestPDESContendedRunsLanes(t *testing.T) {
	for _, top := range []network.Topology{network.TopOmega, network.TopMesh} {
		cfg := DefaultConfig(4)
		cfg.Topology = top
		cfg.SimWorkers = 2
		m := NewMachine(cfg)
		if m.Lanes() != 4 {
			t.Fatalf("%v: contended network must run lane mode, got %d lanes", top, m.Lanes())
		}
		if _, err := m.Run(pdesProgs(cfg.Protocol, 4)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPDESDegradesToSerial: the bus topology is the one configuration that
// runs one lane whatever SimWorkers asks for — a single shared medium has
// no lane-parallel structure — and so produces exactly the serial result.
func TestPDESDegradesToSerial(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Topology = network.TopBus
	cfg.SimWorkers = 8 // requested, but the bus cannot use lanes
	m := NewMachine(cfg)
	if m.Lanes() != 1 {
		t.Fatalf("bus topology must run one lane, got %d lanes", m.Lanes())
	}
	res, err := m.Run(pdesProgs(cfg.Protocol, 4))
	if err != nil {
		t.Fatal(err)
	}
	serial := cfg
	serial.SimWorkers = 0
	res2, err := NewMachine(serial).Run(pdesProgs(serial.Protocol, 4))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res) != fmt.Sprint(res2) {
		t.Fatalf("bus lane run differs from serial:\n got %+v\nwant %+v", res, res2)
	}
}

// TestPDESHorizonError: the horizon fires under the window loop with the
// same error shape as the serial engine.
func TestPDESHorizonError(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.IdealNetwork = true
	cfg.SimWorkers = 2
	cfg.Horizon = 50 // far too short for the workload
	m := NewMachine(cfg)
	_, err := m.Run(pdesProgs(cfg.Protocol, 4))
	if err == nil || !strings.Contains(err.Error(), "horizon") {
		t.Fatalf("want horizon error, got %v", err)
	}
}

// TestPDESObservers: the observation hooks work on four lanes, which run
// on one goroutine. A WBI run's history passes CheckLinearizable; in an op
// list run, OnOp shows each processor exactly its list; and TraceMessages
// writes one line per message Result.Messages counts, the same lines on a
// second run.
func TestPDESObservers(t *testing.T) {
	lanes := func(cfg Config) *Machine {
		t.Helper()
		cfg.SimWorkers = 2
		m := NewMachine(cfg)
		if m.Lanes() != cfg.Nodes {
			t.Fatalf("%d lanes, want one per node", m.Lanes())
		}
		return m
	}
	t.Run("history", func(t *testing.T) {
		cfg := wbiConfig(4)
		m := lanes(cfg)
		rec := m.EnableHistory()
		progs := make([]Program, cfg.Nodes)
		for i := range progs {
			progs[i] = func(p *Proc) {
				r := rand.New(rand.NewPCG(7, uint64(i)))
				for k := 0; k < 16; k++ {
					a := mem.Addr(100 + r.IntN(3)*8)
					switch r.IntN(3) {
					case 0:
						p.Read(a)
					case 1:
						p.Write(a, mem.Word(1000*i+k+1))
					default:
						p.RMW(a, func(w mem.Word) mem.Word { return w + 1 })
					}
					p.Think(sim.Time(r.IntN(6)))
				}
			}
		}
		if _, err := m.Run(progs); err != nil {
			t.Fatal(err)
		}
		if rec.Len() != 16*cfg.Nodes {
			t.Fatalf("recorded %d operations, want %d", rec.Len(), 16*cfg.Nodes)
		}
		if err := rec.CheckLinearizable(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("onop", func(t *testing.T) {
		cfg := cblConfig(4)
		m := lanes(cfg)
		lists := make([][]Op, cfg.Nodes)
		for i := range lists {
			other := mem.Addr(64 * ((i + 1) % cfg.Nodes))
			lists[i] = []Op{
				{Kind: OpWriteGlobal, Addr: mem.Addr(64 * i), Val: mem.Word(i + 1)},
				{Kind: OpThink, Val: mem.Word(3*i + 1)},
				{Kind: OpBarrier, Addr: 4096, Val: mem.Word(cfg.Nodes)},
				{Kind: OpReadGlobal, Addr: other},
				{Kind: OpWriteLock, Addr: 8192},
				{Kind: OpRead, Addr: 8192},
				{Kind: OpUnlock, Addr: 8192},
				{Kind: OpReadUpdate, Addr: other},
			}
		}
		seen := make([][]Op, cfg.Nodes)
		m.OnOp(func(proc int, o Op) { seen[proc] = append(seen[proc], o) })
		if _, _, err := m.RunOps(lists); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(seen) != fmt.Sprint(lists) {
			t.Fatalf("OnOp saw\n%v\nwant\n%v", seen, lists)
		}
	})
	t.Run("trace", func(t *testing.T) {
		cfg := DefaultConfig(4)
		cfg.Faults = network.FaultConfig{Seed: 9, Rates: network.FaultRates{Drop: 0.02, Dup: 0.03, Delay: 0.05}}
		trace := func() (string, Result) {
			m := lanes(cfg)
			var b strings.Builder
			m.TraceMessages(&b)
			res, err := m.Run(pdesProgs(cfg.Protocol, cfg.Nodes))
			if err != nil {
				t.Fatal(err)
			}
			return b.String(), res
		}
		text, res := trace()
		if n := strings.Count(text, "\n"); n == 0 || uint64(n) != res.Messages {
			t.Fatalf("%d trace lines for %d messages", n, res.Messages)
		}
		if res.Faults.AcksSent == 0 || !strings.Contains(text, " net-ack ") {
			t.Fatalf("the trace shows no transport acks; faults %+v", res.Faults)
		}
		if again, _ := trace(); again != text {
			t.Fatal("a second run traced different lines")
		}
	})
}
