package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"ssmp/internal/mem"
	"ssmp/internal/msg"
	"ssmp/internal/network"
	"ssmp/internal/sim"
)

// Addresses the reset programs touch: program A's own blocks, its lock and
// barrier, and the blocks program B (pdesProgs) writes.
const (
	resetBaseA   mem.Addr = 1024
	resetLockA   mem.Addr = 2048
	resetBarrier mem.Addr = 4160
)

// resetProgA leaves as much behind as a run can: written and subscribed
// blocks in caches and stores, update chains never reset, lock-cache lines
// and queue epochs, barrier episodes, directory entries and dirty lines.
// With spin set it never ends, so the run stops at the horizon with events
// queued, writes buffered and programs parked.
func resetProgA(proto Protocol, nodes int, spin bool) []Program {
	progs := make([]Program, nodes)
	for i := range progs {
		own, next := resetBaseA+mem.Addr(64*i), resetBaseA+mem.Addr(64*((i+1)%nodes))
		progs[i] = func(p *Proc) {
			for k := 0; k < 3 || spin; k++ {
				p.Think(sim.Time(1 + i))
				if proto == ProtoWBI {
					p.Write(own, mem.Word(100+k))
					p.Read(next)
					p.RMW(resetLockA, func(w mem.Word) mem.Word { return w + 2 })
					continue
				}
				p.WriteGlobal(own, mem.Word(100+k))
				p.ReadUpdate(next)
				p.Read(own + 4)
				p.WriteLock(resetLockA)
				p.Write(resetLockA, p.Read(resetLockA)+2)
				p.Unlock(resetLockA)
				p.Barrier(resetBarrier, nodes)
			}
		}
	}
	return progs
}

// resetProgB is pdesProgs followed by reads of everything program A wrote,
// so a block, line or subscription A left behind would change what B sees.
func resetProgB(proto Protocol, nodes int) ([]Program, [][]mem.Word) {
	progs := pdesProgs(proto, nodes)
	seen := make([][]mem.Word, nodes)
	for i, body := range progs {
		progs[i] = func(p *Proc) {
			body(p)
			for j := 0; j < nodes; j++ {
				a := resetBaseA + mem.Addr(64*j)
				if proto == ProtoWBI {
					seen[i] = append(seen[i], p.Read(a), p.Read(resetLockA))
					continue
				}
				seen[i] = append(seen[i], p.Read(a), p.ReadGlobal(a), p.ReadUpdate(a+4))
			}
		}
	}
	return progs, seen
}

// resetFaults is a fault plane seeded with seed; 0 turns it off.
func resetFaults(seed uint64) network.FaultConfig {
	if seed == 0 {
		return network.FaultConfig{}
	}
	return network.FaultConfig{Seed: seed, Rates: network.FaultRates{Drop: 0.05, Dup: 0.05, Delay: 0.1}}
}

// TestResetMatchesFresh runs program A on a machine, resets it to a
// configuration that may differ in jitter and faults, runs program B, and
// checks that nothing observable tells it from a fresh machine running B:
// the result, per-processor stats, messages by kind and class, network and
// fault counters, RMRs, the memory either program touched, and a
// reflective walk over every field both machines reach. It covers CBL and
// WBI; the Ω network, mesh and bus; faults off, on and switching either
// way; jitter 0 and 9; and program A finishing, or stopped at the horizon.
func TestResetMatchesFresh(t *testing.T) { checkResetMatchesFresh(t, 0) }

// TestPDESResetMatchesFresh is TestResetMatchesFresh on one lane per node
// with two workers, so the reset covers the lanes' outboxes, window state,
// fabric views and their transports.
func TestPDESResetMatchesFresh(t *testing.T) { checkResetMatchesFresh(t, 2) }

func checkResetMatchesFresh(t *testing.T, workers int) {
	const nodes = 4
	for _, proto := range []Protocol{ProtoCBL, ProtoWBI} {
		for _, topo := range []network.Topology{network.TopOmega, network.TopMesh, network.TopBus} {
			for _, fs := range [][2]uint64{{0, 0}, {3, 7}, {0, 7}, {3, 0}} {
				for _, js := range [][2]uint64{{5, 0}, {0, 9}} {
					for _, spin := range []bool{false, true} {
						name := fmt.Sprintf("%v-%v-faults=%d>%d-jitter=%d>%d-spin=%v",
							proto, topo, fs[0], fs[1], js[0], js[1], spin)
						cfgA := DefaultConfig(nodes)
						cfgA.CacheSets = 16
						cfgA.Protocol, cfgA.Topology, cfgA.SimWorkers = proto, topo, workers
						cfgA.Horizon = 30_000
						cfgA.Jitter, cfgA.Faults = js[0], resetFaults(fs[0])
						cfgB := cfgA
						cfgB.Jitter, cfgB.Faults = js[1], resetFaults(fs[1])
						t.Run(name, func(t *testing.T) { checkReset(t, cfgA, cfgB, spin) })
					}
				}
			}
		}
	}
}

func checkReset(t *testing.T, cfgA, cfgB Config, spin bool) {
	reused := NewMachine(cfgA)
	_, err := reused.Run(resetProgA(cfgA.Protocol, cfgA.Nodes, spin))
	if spin != (err != nil) {
		t.Fatalf("program A (spin %v): %v", spin, err)
	}
	checkResetRun(t, reused, cfgB)
}

// checkResetRun resets reused, a machine whose run is over, to cfgB, runs
// program B on it and on a fresh machine built from cfgB, and checks that
// nothing observable tells the two apart, before the run or after it. It
// returns the run's result.
func checkResetRun(t *testing.T, reused *Machine, cfgB Config) Result {
	t.Helper()
	nodes := cfgB.Nodes
	reused.Reset(cfgB)
	fresh := NewMachine(cfgB)
	if d := stateDiff(fresh, reused); d != "" {
		t.Fatalf("reset machine differs from a fresh one before the run: %s", d)
	}

	progs, seenR := resetProgB(cfgB.Protocol, nodes)
	resR, err := reused.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	progs, seenF := resetProgB(cfgB.Protocol, nodes)
	resF, err := fresh.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	if resR != resF {
		t.Fatalf("result after Reset %+v, fresh %+v", resR, resF)
	}
	if !reflect.DeepEqual(seenR, seenF) {
		t.Fatalf("program B read %v after Reset, %v fresh", seenR, seenF)
	}
	for i := 0; i < nodes; i++ {
		pr, pf := reused.Proc(i), fresh.Proc(i)
		if pr.Stats() != pf.Stats() || pr.Ops != pf.Ops {
			t.Fatalf("proc %d: stats %+v ops %d after Reset, %+v ops %d fresh", i, pr.Stats(), pr.Ops, pf.Stats(), pf.Ops)
		}
	}
	for k := 0; k < msg.NumKinds; k++ {
		if r, f := reused.Messages().Kind(msg.Kind(k)), fresh.Messages().Kind(msg.Kind(k)); r != f {
			t.Fatalf("%v messages: %d after Reset, %d fresh", msg.Kind(k), r, f)
		}
	}
	for c := 0; c < msg.NumClasses; c++ {
		if r, f := reused.Messages().Class(msg.Class(c)), fresh.Messages().Class(msg.Class(c)); r != f {
			t.Fatalf("class %v messages: %d after Reset, %d fresh", msg.Class(c), r, f)
		}
	}
	if r, f := reused.NetStats(), fresh.NetStats(); r != f {
		t.Fatalf("network stats %+v after Reset, %+v fresh", r, f)
	}
	if r, f := reused.fab.FaultCounters(), fresh.fab.FaultCounters(); r != f {
		t.Fatalf("fault counters %+v after Reset, %+v fresh", r, f)
	}
	if r, f := reused.RMRs().PerProc(), fresh.RMRs().PerProc(); !reflect.DeepEqual(r, f) {
		t.Fatalf("RMRs %v after Reset, %v fresh", r, f)
	}
	for i := 0; i < nodes; i++ {
		for _, a := range []mem.Addr{resetBaseA + mem.Addr(64*i), resetBaseA + mem.Addr(64*i+4), resetLockA, 8192, mem.Addr(64 * i)} {
			if r, f := reused.ReadMemory(a), fresh.ReadMemory(a); r != f {
				t.Fatalf("memory at %d: %d after Reset, %d fresh", a, r, f)
			}
		}
	}
	if d := stateDiff(fresh, reused); d != "" {
		t.Fatalf("reset machine's state after the run differs from a fresh one's: %s", d)
	}
	return resR
}

// TestPDESResetChainsFaultSeeds resets one four-lane machine from one
// fault seed to another, over and over, each time after a run under the
// seed before, and checks each run against a fresh machine's as
// TestResetMatchesFresh does. The rates are high enough that every run
// retransmits and holds early arrivals back, so the lane views' transport
// tables and the fault plane's streams, all kept and reset in place, are
// used by every run and grow differently from seed to seed.
func TestPDESResetChainsFaultSeeds(t *testing.T) {
	for _, proto := range []Protocol{ProtoCBL, ProtoWBI} {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := DefaultConfig(4)
			cfg.CacheSets, cfg.Protocol, cfg.SimWorkers, cfg.Horizon = 16, proto, 2, 30_000
			faults := func(seed uint64) network.FaultConfig {
				return network.FaultConfig{Seed: seed, Rates: network.FaultRates{Drop: 0.2, Dup: 0.2, Delay: 0.3}}
			}
			cfg.Faults = faults(3)
			m := NewMachine(cfg)
			if _, err := m.Run(resetProgA(proto, cfg.Nodes, false)); err != nil {
				t.Fatal(err)
			}
			for _, seed := range []uint64{7, 11, 3, 7} {
				cfg.Faults = faults(seed)
				f := checkResetRun(t, m, cfg).Faults
				if f.Retries == 0 || f.Reordered == 0 {
					t.Fatalf("seed %d: fault counters %+v: the run must retransmit and reorder", seed, f)
				}
			}
		})
	}
}

// stateDiff walks every field reachable from two machines and returns the
// path of the first difference, or "". Func values compare only by being
// nil or not. A field named spare or kept is skipped: it holds only memory
// a Reset keeps for reuse, which a fresh machine has not built yet — the
// free lists of message records, directory entries and store blocks
// (spare), and a fabric's reliable transport or the network's fault plane
// while it is off (kept; while on, it is also the fabric's xp or the
// network's faults, and walked there). Slices and maps compare by length
// and elements, so a reset's empty slice equals a fresh nil one, and
// memory a Reset keeps past a slice's length goes unseen.
func stateDiff(a, b *Machine) string {
	w := walker{seen: map[walkKey]bool{}}
	return w.diff("Machine", reflect.ValueOf(a), reflect.ValueOf(b))
}

type walkKey struct {
	a, b uintptr
	t    reflect.Type
}

type walker struct{ seen map[walkKey]bool }

func (w walker) diff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		if a.IsNil() != b.IsNil() {
			return path + ": nil on one side only"
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil on one side only"
			}
			return ""
		}
		k := walkKey{a.Pointer(), b.Pointer(), a.Type()}
		if w.seen[k] {
			return ""
		}
		w.seen[k] = true
		return w.diff(path, a.Elem(), b.Elem())
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil on one side only"
			}
			return ""
		}
		if a.Elem().Type() != b.Elem().Type() {
			return fmt.Sprintf("%s: %v against %v", path, a.Elem().Type(), b.Elem().Type())
		}
		return w.diff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			f := a.Type().Field(i)
			if f.Name == "spare" || f.Name == "kept" {
				continue
			}
			if d := w.diff(path+"."+f.Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d against %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := w.diff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: %d entries against %d", path, a.Len(), b.Len())
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v]: missing on one side", path, it.Key())
			}
			if d := w.diff(fmt.Sprintf("%s[%v]", path, it.Key()), it.Value(), bv); d != "" {
				return d
			}
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v against %v", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d against %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d against %d", path, a.Uint(), b.Uint())
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v against %v", path, a.Float(), b.Float())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q against %q", path, a.String(), b.String())
		}
	default:
		return fmt.Sprintf("%s: cannot compare a %v", path, a.Kind())
	}
	return ""
}

// TestStateDiffSeesOneCounter checks the walk itself: one counter deep in
// one node's controller, or one cached set, is enough to tell two machines
// apart.
func TestStateDiffSeesOneCounter(t *testing.T) {
	a, b := NewMachine(cblConfig(2)), NewMachine(cblConfig(2))
	if d := stateDiff(a, b); d != "" {
		t.Fatalf("two fresh machines differ: %s", d)
	}
	b.nodes[1].cblH.Grants++
	if d := stateDiff(a, b); d == "" {
		t.Fatal("a lock-home grant count went unseen")
	}
	b = NewMachine(cblConfig(2))
	b.nodes[0].rucN.Cache().Allocate(3)
	if d := stateDiff(a, b); d == "" {
		t.Fatal("a built cache set went unseen")
	}
}

// TestResetAfterCancel resets a machine whose run was cancelled before its
// first event, with every program's start still queued.
func TestResetAfterCancel(t *testing.T) {
	cfg := cblConfig(4)
	m := NewMachine(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.RunContext(ctx, resetProgA(ProtoCBL, 4, false)); err == nil {
		t.Fatal("a cancelled run returned no error")
	}
	m.Reset(cfg)
	if d := stateDiff(NewMachine(cfg), m); d != "" {
		t.Fatalf("reset after a cancelled run: %s", d)
	}
	if _, err := m.Run(resetProgA(ProtoCBL, 4, false)); err != nil {
		t.Fatal(err)
	}
}

// TestResetChangesOnlyJitterAndFaults checks that the shape test covers
// every Config field: a change to any field but Jitter and Faults makes
// Reset panic, and a change to those two does not.
func TestResetChangesOnlyJitterAndFaults(t *testing.T) {
	base := DefaultConfig(4)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		o := base
		perturb(reflect.ValueOf(&o).Elem().Field(i))
		if want := name == "Jitter" || name == "Faults"; base.resettableTo(&o) != want {
			t.Errorf("changing %s: resettable %v, want %v", name, !want, want)
		}
	}
	m := NewMachine(base)
	o := base
	o.Jitter, o.Faults = 9, resetFaults(4)
	m.Reset(o)
	o.CacheWays++
	defer func() {
		if recover() == nil {
			t.Error("Reset to a different cache geometry did not panic")
		}
	}()
	m.Reset(o)
}

// perturb changes v, a Config field, to a different value.
func perturb(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint8, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Struct:
		perturb(v.Field(0))
	default:
		panic(fmt.Sprintf("perturb: %v", v.Kind()))
	}
}

// TestResetAllocs pins the heap allocations of resetting a 2-node machine
// and running TestMachineAllocs's programs on it: what a pooled machine
// pays per run of closure programs. What remains is each processor's
// coroutine. The messages are records from the fabric's free list, and the
// write buffers' queues and waiter lists, the stores' blocks and the
// controllers' tables keep their memory across runs.
func TestResetAllocs(t *testing.T) {
	cfg := DefaultConfig(2)
	m := NewMachine(cfg)
	if _, err := m.Run(allocProgs); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		m.Reset(cfg)
		if _, err := m.Run(allocProgs); err != nil {
			t.Fatal(err)
		}
	})
	const want = 24
	if got != want {
		t.Errorf("2-node Reset+Run made %v allocations, want %v", got, want)
	}
}

// TestResetRunOpsAllocs is TestResetAllocs with the programs run as op
// lists through RunOps: with no coroutine to make and the protocols making
// nothing per transaction, a pooled litmus seed allocates nothing.
func TestResetRunOpsAllocs(t *testing.T) {
	cfg := DefaultConfig(2)
	m := NewMachine(cfg)
	if _, _, err := m.RunOps(allocOps); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		m.Reset(cfg)
		if _, _, err := m.RunOps(allocOps); err != nil {
			t.Fatal(err)
		}
	})
	const want = 0
	if got != want {
		t.Errorf("2-node Reset+RunOps made %v allocations, want %v", got, want)
	}
}

// wbiAllocOps is a 2-node op list in which both processors write, RMW and
// read the same two blocks, so misses, ownership transfers, forwards and
// invalidations all recur.
var wbiAllocOps = [][]Op{
	{{Kind: OpWrite, Addr: 0, Val: 1}, {Kind: OpRMW, Addr: 32, Val: 1}, {Kind: OpRead, Addr: 32}, {Kind: OpWrite, Addr: 1, Val: 2}},
	{{Kind: OpWrite, Addr: 32, Val: 1}, {Kind: OpRMW, Addr: 0, Val: 1}, {Kind: OpRead, Addr: 0}, {Kind: OpWrite, Addr: 33, Val: 2}},
}

// checkResetRunOpsAllocs pins the heap allocations of resetting a machine
// built from cfg and running ops on it, and returns the result of the
// last run.
func checkResetRunOpsAllocs(t *testing.T, cfg Config, ops [][]Op, want float64) Result {
	t.Helper()
	m := NewMachine(cfg)
	if _, _, err := m.RunOps(ops); err != nil {
		t.Fatal(err)
	}
	var res Result
	got := testing.AllocsPerRun(20, func() {
		m.Reset(cfg)
		var err error
		if res, _, err = m.RunOps(ops); err != nil {
			t.Fatal(err)
		}
	})
	if got != want {
		t.Errorf("%d-node %v Reset+RunOps made %v allocations, want %v", cfg.Nodes, cfg.Protocol, got, want)
	}
	return res
}

// TestResetAllocsWBI pins Reset+RunOps on a 2-node WBI machine: the WBI
// controllers make nothing per transaction, a Reset keeps each block's
// directory entry and sharer set for the next run, and an RMW record
// performs its fetch-and-add with no function made for it.
func TestResetAllocsWBI(t *testing.T) {
	checkResetRunOpsAllocs(t, wbiConfig(2), wbiAllocOps, 0)
}

// TestResetAllocsFaults pins Reset+RunOps of allocOps on a 2-node machine
// with the fault plane on, on one lane and on two, under a fault seed
// whose run drops, duplicates and retransmits. Its messages, acks,
// retransmissions and duplicates are records from the free list, a
// dropped record goes back to it at once, and a Reset reseeds the fault
// plane and empties the reliable transport's tables in place.
func TestResetAllocsFaults(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := DefaultConfig(2)
			cfg.Faults = resetFaults(6)
			cfg.SimWorkers = workers
			f := checkResetRunOpsAllocs(t, cfg, allocOps, 0).Faults
			if f.Dropped == 0 || f.Duplicated == 0 || f.Retries == 0 {
				t.Errorf("fault counters %+v: the run must drop, duplicate and retransmit", f)
			}
		})
	}
}

// spareRecords returns the addresses of the records in the free list of
// message records, which the root fabric shares with its lane views.
func spareRecords(m *Machine) []uintptr {
	var recs []uintptr
	l := reflect.ValueOf(m.fab).Elem().FieldByName("spare")
	for i := 0; i < l.Len(); i++ {
		recs = append(recs, l.Index(i).Pointer())
	}
	return recs
}

// TestSpareBounded runs the same programs on one machine for 20 rounds of
// Reset and Run. Every record a round makes goes back to the free list,
// and the same run takes and returns the same records every round, so
// after the first round the list must hold exactly the records it held
// then: a record made outside the list, one lost (a dropped message never
// taken back) or one returned twice would show. It covers a CBL machine
// with locks and a barrier, a WBI machine, the fault plane's drops,
// duplicates and retransmissions, and a machine on one lane per node,
// whose views share the root's list.
func TestSpareBounded(t *testing.T) {
	faulty := cblConfig(4)
	faulty.Faults = resetFaults(3)
	lanes := cblConfig(4)
	lanes.SimWorkers = 2
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"cbl", cblConfig(4)}, {"wbi", wbiConfig(4)}, {"faults", faulty}, {"lanes", lanes}} {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg
			m := NewMachine(cfg)
			first := map[uintptr]bool{}
			for round := 1; round <= 20; round++ {
				if round > 1 {
					m.Reset(cfg)
				}
				res, err := m.Run(resetProgA(cfg.Protocol, cfg.Nodes, false))
				if err != nil {
					t.Fatal(err)
				}
				if cfg.Faults.Enabled() && (res.Faults.Dropped == 0 || res.Faults.Duplicated == 0 || res.Faults.Retries == 0) {
					t.Fatalf("fault counters %+v: the run must drop, duplicate and retransmit", res.Faults)
				}
				recs := spareRecords(m)
				if round == 1 {
					for _, r := range recs {
						first[r] = true
					}
					if len(first) == 0 {
						t.Fatal("no record went back to a free list")
					}
					continue
				}
				made := 0
				for _, r := range recs {
					if !first[r] {
						made++
					}
				}
				if made > 0 || len(recs) != len(first) {
					t.Fatalf("round %d: free lists hold %d records, %d of them made after round 1; %d after round 1",
						round, len(recs), made, len(first))
				}
			}
		})
	}
}

// builtMachine keeps BenchmarkMachineBuild's builds from being optimized
// away.
var builtMachine *Machine

// BenchmarkMachineBuild measures what a litmus run pays for its machine at
// the litmus shapes, 2 and 4 nodes: a fresh build, or a Reset of a machine
// that has run TestMachineAllocs's programs.
func BenchmarkMachineBuild(b *testing.B) {
	for _, nodes := range []int{2, 4} {
		cfg := DefaultConfig(nodes)
		b.Run(fmt.Sprintf("new/nodes=%d", nodes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				builtMachine = NewMachine(cfg)
			}
		})
		b.Run(fmt.Sprintf("reset/nodes=%d", nodes), func(b *testing.B) {
			m := NewMachine(cfg)
			progs := make([]Program, nodes)
			copy(progs, allocProgs)
			if _, err := m.Run(progs); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.Reset(cfg)
			}
		})
	}
}
