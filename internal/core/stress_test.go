package core_test

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"ssmp/internal/core"
	"ssmp/internal/mem"
	"ssmp/internal/network"
	"ssmp/internal/sim"
	"ssmp/internal/syncprim"
)

// stressRun exercises a machine with randomized programs that maintain a
// verifiable invariant: every critical section increments a counter
// colocated with its lock, so the final sum must equal the total number of
// critical sections executed.
func stressRun(t testing.TB, proto core.Protocol, seed uint64, procs, iters int, directHandoff bool) bool {
	t.Helper()
	cfg := core.DefaultConfig(procs)
	cfg.Protocol = proto
	cfg.CacheSets = 32
	cfg.DirectHandoff = directHandoff
	m := core.NewMachine(cfg)

	const nLocks = 4
	lockAddr := func(i int) mem.Addr { return mem.Addr(4096 + i*8) }
	counterOf := func(i int) mem.Addr { return lockAddr(i) + 1 } // colocated

	mkLock := func(i int) syncprim.Locker {
		if proto == core.ProtoCBL {
			return syncprim.CBLLock{Addr: lockAddr(i)}
		}
		return syncprim.TestAndSetLock{Addr: lockAddr(i)}
	}

	sections := make([]int, nLocks)
	progs := make([]core.Program, procs)
	for i := 0; i < procs; i++ {
		i := i
		progs[i] = func(p *core.Proc) {
			rng := rand.New(rand.NewPCG(seed, uint64(i)))
			for k := 0; k < iters; k++ {
				switch rng.IntN(4) {
				case 0: // critical section with counter increment
					li := rng.IntN(nLocks)
					l := mkLock(li)
					l.Acquire(p)
					v := p.Read(counterOf(li))
					p.Think(sim.Time(rng.IntN(8)))
					p.Write(counterOf(li), v+1)
					sections[li]++
					l.Release(p)
				case 1: // local computation
					p.Think(sim.Time(rng.IntN(20) + 1))
				case 2: // private references
					p.PrivateRef(rng.IntN(2) == 0, rng.IntN(20) != 0)
				case 3: // scratch shared write + read back eventually
					a := mem.Addr(16384 + uint64(i)*64 + uint64(rng.IntN(8))*4)
					p.WriteGlobal(a, mem.Word(k))
					if rng.IntN(2) == 0 {
						p.Read(a)
					}
				}
			}
			p.FlushBuffer()
		}
	}
	if _, err := m.Run(progs); err != nil {
		t.Logf("stress run failed: %v", err)
		return false
	}
	// Verify the counters. CBL releases write the lock block home; WBI
	// counters may still live in an owner's cache, so read through the
	// owner when memory is stale — run a verification pass instead:
	// re-run is impossible, so compare against memory for CBL and accept
	// cached ownership for WBI via a final coherent read done inside the
	// run. To keep this simple the programs above end with FlushBuffer,
	// and for WBI we check memory after forcing write-backs is not
	// possible — instead verify at least that no increments were lost
	// where memory is authoritative.
	for li := 0; li < nLocks; li++ {
		want := mem.Word(sections[li])
		got := m.ReadMemory(counterOf(li))
		if proto == core.ProtoCBL && got != want {
			t.Logf("lock %d counter = %d, want %d", li, got, want)
			return false
		}
		if proto == core.ProtoWBI && got > want {
			t.Logf("lock %d counter = %d exceeds %d sections", li, got, want)
			return false
		}
	}
	return true
}

func TestQuickStressCBL(t *testing.T) {
	f := func(seed uint64) bool { return stressRun(t, core.ProtoCBL, seed, 8, 25, false) }
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStressCBLDirectHandoff(t *testing.T) {
	f := func(seed uint64) bool { return stressRun(t, core.ProtoCBL, seed, 8, 25, true) }
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStressWBI(t *testing.T) {
	f := func(seed uint64) bool { return stressRun(t, core.ProtoWBI, seed, 8, 25, false) }
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestStressWBICounterExact verifies WBI counter exactness by ending the
// run with a designated verifier that reads every counter coherently after
// a software barrier.
func TestStressWBICounterExact(t *testing.T) {
	cfg := core.DefaultConfig(8)
	cfg.Protocol = core.ProtoWBI
	cfg.CacheSets = 32
	m := core.NewMachine(cfg)

	const nLocks = 3
	lockAddr := func(i int) mem.Addr { return mem.Addr(4096 + i*8) }
	counterOf := func(i int) mem.Addr { return lockAddr(i) + 1 }
	bar := syncprim.SWBarrier{CountAddr: 8192, GenAddr: 8200, Participants: 8}

	sections := make([]int, nLocks)
	finals := make([]mem.Word, nLocks)
	progs := make([]core.Program, 8)
	for i := 0; i < 8; i++ {
		i := i
		progs[i] = func(p *core.Proc) {
			rng := rand.New(rand.NewPCG(7, uint64(i)))
			for k := 0; k < 20; k++ {
				li := rng.IntN(nLocks)
				l := syncprim.TestAndSetLock{Addr: lockAddr(li)}
				l.Acquire(p)
				p.Write(counterOf(li), p.Read(counterOf(li))+1)
				sections[li]++
				l.Release(p)
				p.Think(sim.Time(rng.IntN(10)))
			}
			bar.Wait(p)
			if i == 0 {
				for li := 0; li < nLocks; li++ {
					finals[li] = p.Read(counterOf(li))
				}
			}
		}
	}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	for li := 0; li < nLocks; li++ {
		if finals[li] != mem.Word(sections[li]) {
			t.Fatalf("lock %d counter = %d, want %d", li, finals[li], sections[li])
		}
	}
}

// TestQuickStressTopologies runs the randomized invariant workload over the
// mesh and bus interconnects: protocol correctness must not depend on the
// network.
func TestQuickStressTopologies(t *testing.T) {
	for _, top := range []network.Topology{network.TopMesh, network.TopBus} {
		top := top
		t.Run(top.String(), func(t *testing.T) {
			f := func(seed uint64) bool {
				cfg := core.DefaultConfig(8)
				cfg.CacheSets = 32
				cfg.Topology = top
				m := core.NewMachine(cfg)
				lockA := mem.Addr(4096)
				counter := lockA + 1
				sections := 0
				progs := make([]core.Program, 8)
				for i := 0; i < 8; i++ {
					i := i
					progs[i] = func(p *core.Proc) {
						rng := rand.New(rand.NewPCG(seed, uint64(i)))
						for k := 0; k < 15; k++ {
							p.WriteLock(lockA)
							p.Write(counter, p.Read(counter)+1)
							sections++
							p.Unlock(lockA)
							p.Think(sim.Time(rng.IntN(12)))
						}
					}
				}
				if _, err := m.Run(progs); err != nil {
					return false
				}
				return m.ReadMemory(counter) == mem.Word(sections)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
