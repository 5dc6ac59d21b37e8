package core

import (
	"testing"

	"ssmp/internal/mem"
	"ssmp/internal/metrics"
	"ssmp/internal/network"
)

func chaosConfig(nodes int, seed uint64) Config {
	cfg := cblConfig(nodes)
	cfg.Faults = network.FaultConfig{
		Seed:  seed,
		Rates: network.FaultRates{Drop: 0.05, Dup: 0.05, Delay: 0.1},
	}
	return cfg
}

// counterProgs returns programs that each add k to a lock-protected counter.
func counterProgs(nodes, k int, a mem.Addr) []Program {
	progs := make([]Program, nodes)
	for i := 0; i < nodes; i++ {
		progs[i] = func(p *Proc) {
			for n := 0; n < k; n++ {
				p.WriteLock(a)
				p.Write(a, p.Read(a)+1)
				p.Unlock(a)
			}
		}
	}
	return progs
}

func TestChaosLockCounterCBL(t *testing.T) {
	const k = 10
	m := NewMachine(chaosConfig(4, 1))
	a := mem.Addr(100)
	res, err := m.Run(counterProgs(4, k, a))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ReadMemory(a); got != 4*k {
		t.Fatalf("counter = %d under faults, want %d", got, 4*k)
	}
	if res.Faults.Dropped == 0 && res.Faults.Duplicated == 0 && res.Faults.Delayed == 0 {
		t.Fatalf("fault plane injected nothing: %+v", res.Faults)
	}
	if res.Faults.AcksSent == 0 {
		t.Fatal("transport sent no acks — is it enabled?")
	}
}

func TestChaosRMWCounterWBI(t *testing.T) {
	const k = 10
	cfg := chaosConfig(4, 2)
	cfg.Protocol = ProtoWBI
	m := NewMachine(cfg)
	a := mem.Addr(100)
	progs := make([]Program, 4)
	for i := 0; i < 4; i++ {
		progs[i] = func(p *Proc) {
			for n := 0; n < k; n++ {
				p.RMW(a, func(v mem.Word) mem.Word { return v + 1 })
			}
		}
	}
	res, err := m.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	// The final owner's dirty line holds the current value; fall back to
	// memory if no owner remains.
	got := m.ReadMemory(a)
	for i := range m.nodes {
		n := &m.nodes[i]
		if l := n.wbiN.Cache().Peek(m.geom.BlockOf(a)); l != nil && l.Excl {
			got = l.Data[m.geom.WordIndex(a)]
		}
	}
	if got != 4*k {
		t.Fatalf("counter = %d under faults, want %d", got, 4*k)
	}
	if !res.Faults.Any() {
		t.Fatal("no fault activity recorded")
	}
}

func TestChaosDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) Result {
		m := NewMachine(chaosConfig(4, seed))
		res, err := m.Run(counterProgs(4, 8, 64))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(7), run(7)
	if a.Cycles != b.Cycles || a.Events != b.Events || a.Faults != b.Faults {
		t.Fatalf("same fault seed diverged:\n%+v\n%+v", a, b)
	}
	c := run(8)
	if a.Cycles == c.Cycles && a.Faults == c.Faults {
		t.Log("seeds 7 and 8 coincided (possible but unlikely); not failing")
	}
}

func TestFaultsOffLeavesRunsUntouched(t *testing.T) {
	run := func(cfg Config) Result {
		m := NewMachine(cfg)
		res, err := m.Run(counterProgs(4, 8, 64))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(cblConfig(4))
	// Seed 0 disables faults regardless of rates; the run must be
	// bit-identical to the baseline and the transport must stay off.
	off := cblConfig(4)
	off.Faults = network.FaultConfig{Seed: 0, Rates: network.FaultRates{Drop: 0.5}}
	got := run(off)
	if got != base {
		t.Fatalf("faults-off run diverged from baseline:\n%+v\n%+v", got, base)
	}
	if base.Faults != (metrics.FaultCounters{}) {
		t.Fatalf("baseline has fault counters: %+v", base.Faults)
	}
}

func TestConfigValidateFaults(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Faults = network.FaultConfig{Seed: 1, Rates: network.FaultRates{Drop: 1.5}}
	if cfg.Validate() == nil {
		t.Fatal("Drop=1.5 accepted")
	}
}
