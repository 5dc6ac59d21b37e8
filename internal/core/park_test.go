package core

import (
	"strings"
	"testing"

	"ssmp/internal/cbl"
	"ssmp/internal/mem"
	"ssmp/internal/sim"
)

// TestBlockingPrimitivesParkOnce runs each blocking primitive after batched
// local time. The program parks once: it records the operation and parks,
// and the last hop of the local-time replay issues it from the event loop.
// Waking the program at that hop only to have it issue and park again
// would be a second park with no simulated effect. Cycles, Events, Ops and
// ProcStats are pinned from a kernel that did exactly that, so issuing
// from the hop is bit-identical to it.
func TestBlockingPrimitivesParkOnce(t *testing.T) {
	inc := func(w mem.Word) mem.Word { return w + 1 }
	cases := []struct {
		name  string
		proto Protocol
		// setup runs on processor 0 before the measured Think and
		// primitive; other, when set, runs on processor 1.
		setup, prim, other func(p *Proc)

		cycles sim.Time
		events uint64
		ops    uint64
		stats  ProcStats
	}{
		{name: "wbi/Read", proto: ProtoWBI,
			prim:   func(p *Proc) { p.Read(100) },
			cycles: 19, events: 7, ops: 1, stats: ProcStats{Busy: 3, MemStall: 16, SyncStall: 0, Finished: 19}},
		{name: "wbi/Read-hit", proto: ProtoWBI,
			setup:  func(p *Proc) { p.Read(100) },
			prim:   func(p *Proc) { p.Read(100) },
			cycles: 20, events: 8, ops: 2, stats: ProcStats{Busy: 3, MemStall: 17, SyncStall: 0, Finished: 20}},
		{name: "wbi/Write", proto: ProtoWBI,
			prim:   func(p *Proc) { p.Write(100, 7) },
			cycles: 19, events: 7, ops: 1, stats: ProcStats{Busy: 3, MemStall: 16, SyncStall: 0, Finished: 19}},
		{name: "wbi/Write-hit", proto: ProtoWBI,
			setup:  func(p *Proc) { p.Write(100, 6) },
			prim:   func(p *Proc) { p.Write(100, 7) },
			cycles: 20, events: 8, ops: 2, stats: ProcStats{Busy: 3, MemStall: 17, SyncStall: 0, Finished: 20}},
		{name: "wbi/ReadGlobal", proto: ProtoWBI,
			prim:   func(p *Proc) { p.ReadGlobal(100) },
			cycles: 19, events: 7, ops: 1, stats: ProcStats{Busy: 3, MemStall: 16, SyncStall: 0, Finished: 19}},
		{name: "wbi/WriteGlobal", proto: ProtoWBI,
			prim:   func(p *Proc) { p.WriteGlobal(100, 7) },
			cycles: 19, events: 7, ops: 1, stats: ProcStats{Busy: 3, MemStall: 16, SyncStall: 0, Finished: 19}},
		{name: "wbi/RMW", proto: ProtoWBI,
			prim:   func(p *Proc) { p.RMW(100, inc) },
			cycles: 19, events: 7, ops: 1, stats: ProcStats{Busy: 3, MemStall: 0, SyncStall: 16, Finished: 19}},
		{name: "wbi/RMW-hit", proto: ProtoWBI,
			setup:  func(p *Proc) { p.RMW(100, inc) },
			prim:   func(p *Proc) { p.RMW(100, inc) },
			cycles: 20, events: 8, ops: 2, stats: ProcStats{Busy: 3, MemStall: 0, SyncStall: 17, Finished: 20}},
		{name: "cbl/Read", proto: ProtoCBL,
			prim:   func(p *Proc) { p.Read(100) },
			cycles: 19, events: 6, ops: 1, stats: ProcStats{Busy: 3, MemStall: 16, SyncStall: 0, Finished: 19}},
		{name: "cbl/Read-hit", proto: ProtoCBL,
			setup:  func(p *Proc) { p.Read(100) },
			prim:   func(p *Proc) { p.Read(100) },
			cycles: 20, events: 7, ops: 2, stats: ProcStats{Busy: 3, MemStall: 17, SyncStall: 0, Finished: 20}},
		{name: "cbl/Write", proto: ProtoCBL,
			prim:   func(p *Proc) { p.Write(100, 7) },
			cycles: 19, events: 6, ops: 1, stats: ProcStats{Busy: 3, MemStall: 16, SyncStall: 0, Finished: 19}},
		{name: "cbl/ReadGlobal", proto: ProtoCBL,
			prim:   func(p *Proc) { p.ReadGlobal(100) },
			cycles: 13, events: 6, ops: 1, stats: ProcStats{Busy: 3, MemStall: 10, SyncStall: 0, Finished: 13}},
		{name: "cbl/ReadUpdate", proto: ProtoCBL,
			prim:   func(p *Proc) { p.ReadUpdate(100) },
			cycles: 19, events: 6, ops: 1, stats: ProcStats{Busy: 3, MemStall: 16, SyncStall: 0, Finished: 19}},
		{name: "cbl/ResetUpdate", proto: ProtoCBL,
			setup:  func(p *Proc) { p.ReadUpdate(100) },
			prim:   func(p *Proc) { p.ResetUpdate(100) },
			cycles: 22, events: 9, ops: 2, stats: ProcStats{Busy: 3, MemStall: 17, SyncStall: 0, Finished: 20}},
		{name: "cbl/ReadLock", proto: ProtoCBL,
			prim:   func(p *Proc) { p.ReadLock(100) },
			cycles: 19, events: 7, ops: 1, stats: ProcStats{Busy: 3, MemStall: 0, SyncStall: 16, Finished: 19}},
		{name: "cbl/WriteLock", proto: ProtoCBL,
			prim:   func(p *Proc) { p.WriteLock(100) },
			cycles: 19, events: 7, ops: 1, stats: ProcStats{Busy: 3, MemStall: 0, SyncStall: 16, Finished: 19}},
		{name: "cbl/WriteLock-contended", proto: ProtoCBL,
			prim:   func(p *Proc) { p.WriteLock(100) },
			other:  func(p *Proc) { p.WriteLock(100); p.Think(40); p.Unlock(100) },
			cycles: 63, events: 23, ops: 1, stats: ProcStats{Busy: 3, MemStall: 0, SyncStall: 60, Finished: 63}},
		{name: "cbl/FlushBuffer", proto: ProtoCBL,
			setup:  func(p *Proc) { p.WriteGlobal(200, 1) },
			prim:   func(p *Proc) { p.FlushBuffer() },
			cycles: 6, events: 7, ops: 2, stats: ProcStats{Busy: 4, MemStall: 0, SyncStall: 2, Finished: 6}},
		{name: "cbl/FlushBuffer-empty", proto: ProtoCBL,
			prim:   func(p *Proc) { p.FlushBuffer() },
			cycles: 3, events: 2, ops: 1, stats: ProcStats{Busy: 3, MemStall: 0, SyncStall: 0, Finished: 3}},
		{name: "cbl/Unlock", proto: ProtoCBL,
			setup:  func(p *Proc) { p.WriteLock(100) },
			prim:   func(p *Proc) { p.Unlock(100) },
			cycles: 22, events: 10, ops: 3, stats: ProcStats{Busy: 3, MemStall: 0, SyncStall: 17, Finished: 20}},
		{name: "cbl/Unlock-flush", proto: ProtoCBL,
			setup:  func(p *Proc) { p.WriteLock(100); p.WriteGlobal(200, 1) },
			prim:   func(p *Proc) { p.Unlock(100) },
			cycles: 25, events: 15, ops: 4, stats: ProcStats{Busy: 4, MemStall: 0, SyncStall: 19, Finished: 23}},
		{name: "cbl/Barrier", proto: ProtoCBL,
			prim:   func(p *Proc) { p.Barrier(300, 1) },
			cycles: 13, events: 6, ops: 2, stats: ProcStats{Busy: 3, MemStall: 0, SyncStall: 10, Finished: 13}},
		{name: "cbl/Barrier-flush", proto: ProtoCBL,
			setup:  func(p *Proc) { p.WriteGlobal(200, 1) },
			prim:   func(p *Proc) { p.Barrier(300, 1) },
			cycles: 16, events: 11, ops: 3, stats: ProcStats{Busy: 4, MemStall: 0, SyncStall: 12, Finished: 16}},
		{name: "cbl/Barrier-2", proto: ProtoCBL,
			prim:   func(p *Proc) { p.Barrier(300, 2) },
			other:  func(p *Proc) { p.Think(25); p.Barrier(300, 2) },
			cycles: 36, events: 12, ops: 2, stats: ProcStats{Busy: 3, MemStall: 0, SyncStall: 32, Finished: 35}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := cblConfig(4)
			cfg.Protocol = c.proto
			m := NewMachine(cfg)
			var parks uint64
			progs := make([]Program, 4)
			progs[0] = func(p *Proc) {
				if c.setup != nil {
					c.setup(p)
				}
				before := p.parks
				p.Think(3)
				c.prim(p)
				parks = p.parks - before
			}
			if c.other != nil {
				progs[1] = c.other
			}
			res, err := m.Run(progs)
			if err != nil {
				t.Fatal(err)
			}
			p := m.Proc(0)
			if parks != 1 {
				t.Errorf("parked %d times, want 1", parks)
			}
			if res.Cycles != c.cycles || res.Events != c.events || p.Ops != c.ops {
				t.Errorf("cycles %d events %d ops %d, want %d %d %d",
					res.Cycles, res.Events, p.Ops, c.cycles, c.events, c.ops)
			}
			if got := p.Stats(); got != c.stats {
				t.Errorf("stats %+v, want %+v", got, c.stats)
			}
		})
	}
}

// TestUnlockNotHeldSurfacesAsError: an UNLOCK of a lock the node does not
// hold fails at issue wherever it is issued (inline, from the last hop of
// the replay, or from the write buffer's drain after its flush), and Run
// reports the failure as processor 0's own panic.
func TestUnlockNotHeldSurfacesAsError(t *testing.T) {
	for name, before := range map[string]func(p *Proc){
		"inline":   func(p *Proc) {},
		"last-hop": func(p *Proc) { p.Think(3) },
		"flush":    func(p *Proc) { p.WriteGlobal(200, 1); p.Think(3) },
	} {
		m := NewMachine(cblConfig(4))
		progs := make([]Program, 4)
		progs[0] = func(p *Proc) { before(p); p.Unlock(64) }
		progs[1] = func(p *Proc) { p.Think(100) }
		_, err := m.Run(progs)
		want := "processor 0 panicked: core: processor 0 unlock on 64: " + cbl.ErrNotHeld.Error()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", name, err, want)
		}
	}
}

// allocProgs is a 2-node program in the shape of a litmus test.
var allocProgs = []Program{
	func(p *Proc) { p.WriteGlobal(0, 1); p.FlushBuffer(); p.ReadGlobal(32) },
	func(p *Proc) { p.WriteGlobal(32, 1); p.FlushBuffer(); p.ReadGlobal(0) },
}

// allocOps is allocProgs written as records, for RunOps.
var allocOps = [][]Op{
	{{Kind: OpWriteGlobal, Addr: 0, Val: 1}, {Kind: OpFlush}, {Kind: OpReadGlobal, Addr: 32}},
	{{Kind: OpWriteGlobal, Addr: 32, Val: 1}, {Kind: OpFlush}, {Kind: OpReadGlobal, Addr: 0}},
}

// TestMachineAllocs pins the heap allocations of building and running a
// 2-node machine, the shape of a litmus replay. Most of them are per node:
// its controllers, and its processor's coroutine and completion callbacks.
// Directory stations schedule typed events, so processing a message
// allocates no closure; a message is a record from the fabric's free list,
// so a fresh machine allocates only as many as are ever in flight at once;
// and a controller's maps are made on their first entry, so the lock and
// barrier tables this program never uses cost nothing.
func TestMachineAllocs(t *testing.T) {
	got := testing.AllocsPerRun(20, func() {
		if _, err := NewMachine(DefaultConfig(2)).Run(allocProgs); err != nil {
			t.Fatal(err)
		}
	})
	const want = 91
	if got != want {
		t.Errorf("2-node build+run made %v allocations, want %v", got, want)
	}
}

// BenchmarkProcPark measures the handoff between a processor's calls and
// the event loop: one processor issues back-to-back blocking reads that hit
// in its WBI cache, so each read waits once and its completion event goes
// on with the next. runner=program runs them as a program, which parks on
// its coroutine and is resumed; runner=RunOps runs them as an op list,
// which the event loop performs itself. ns/park is the run's wall time,
// machine build excluded, over its waits.
func BenchmarkProcPark(b *testing.B) {
	const reads = 4096
	prog := func(p *Proc) {
		for i := 0; i < reads; i++ {
			p.Read(100)
		}
	}
	list := make([]Op, reads)
	for i := range list {
		list[i] = Op{Kind: OpRead, Addr: 100}
	}
	for _, runner := range []string{"program", "RunOps"} {
		b.Run("runner="+runner, func(b *testing.B) {
			b.ReportAllocs()
			var parks uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := NewMachine(wbiConfig(2))
				b.StartTimer()
				var err error
				if runner == "program" {
					_, err = m.Run([]Program{prog, nil})
				} else {
					_, _, err = m.RunOps([][]Op{list, nil})
				}
				if err != nil {
					b.Fatal(err)
				}
				parks += m.Proc(0).parks
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(parks), "ns/park")
		})
	}
}
