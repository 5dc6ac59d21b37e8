package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ssmp/internal/history"
	"ssmp/internal/mem"
	"ssmp/internal/metrics"
	"ssmp/internal/sim"
)

// call performs o through its named method, as a program written against
// the primitives does, and returns the word the method returns (0 for
// one that returns nothing).
func call(p *Proc, o Op) mem.Word {
	switch o.Kind {
	case OpRead:
		return p.Read(o.Addr)
	case OpWrite:
		p.Write(o.Addr, o.Val)
	case OpReadGlobal:
		return p.ReadGlobal(o.Addr)
	case OpWriteGlobal:
		p.WriteGlobal(o.Addr, o.Val)
	case OpReadUpdate:
		return p.ReadUpdate(o.Addr)
	case OpResetUpdate:
		p.ResetUpdate(o.Addr)
	case OpFlush:
		p.FlushBuffer()
	case OpReadLock:
		p.ReadLock(o.Addr)
	case OpWriteLock:
		p.WriteLock(o.Addr)
	case OpUnlock:
		p.Unlock(o.Addr)
	case OpBarrier:
		p.Barrier(o.Addr, int(o.Val))
	case OpThink:
		p.Think(sim.Time(o.Val))
	case OpPrivate:
		p.PrivateRef(o.Write, o.Hit)
	case OpRMW:
		return p.RMW(o.Addr, func(w mem.Word) mem.Word { return w + o.Val })
	default:
		panic(fmt.Sprintf("call: unknown kind %d", o.Kind))
	}
	return 0
}

// reported is one OnOp report.
type reported struct {
	proc int
	o    Op
}

// opsRun is everything a run of a program set shows.
type opsRun struct {
	res    Result
	err    string
	stats  []ProcStats
	counts [][3]uint64 // Ops, PrivHits, PrivMisses per processor
	words  [][]mem.Word
	msgs   metrics.Collector
	mem    map[mem.Addr]mem.Word
	seen   []reported
	hist   []history.Op
}

// runOps runs progs on a machine built from cfg, each op through Do or
// through its named method, with the OnOp observer and the history
// recorder installed when observe is set.
func runOps(cfg Config, progs [][]Op, viaDo, observe bool) opsRun {
	m := NewMachine(cfg)
	var r opsRun
	var rec *history.Recorder
	if observe {
		m.OnOp(func(proc int, o Op) { r.seen = append(r.seen, reported{proc, o}) })
		rec = m.EnableHistory()
	}
	r.words = make([][]mem.Word, cfg.Nodes)
	programs := make([]Program, cfg.Nodes)
	for i, ops := range progs {
		programs[i] = func(p *Proc) {
			for _, o := range ops {
				if viaDo {
					r.words[i] = append(r.words[i], p.Do(o))
				} else {
					r.words[i] = append(r.words[i], call(p, o))
				}
			}
		}
	}
	res, err := m.Run(programs)
	r.res = res
	if err != nil {
		r.err = err.Error()
	}
	r.mem = map[mem.Addr]mem.Word{}
	for i := range progs {
		p := m.Proc(i)
		r.stats = append(r.stats, p.Stats())
		r.counts = append(r.counts, [3]uint64{p.Ops, p.PrivHits, p.PrivMisses})
		for _, o := range progs[i] {
			r.mem[o.Addr] = m.ReadMemory(o.Addr)
		}
	}
	r.msgs = *m.Messages()
	if rec != nil {
		r.hist = rec.Ops()
	}
	return r
}

// machineCase is a named machine configuration.
type machineCase struct {
	name string
	cfg  Config
}

// doCase is a two-processor program of TestDoMatchesMethods.
type doCase struct {
	name     string
	machines []machineCase
	p0, p1   []Op
	// What processor 0's calls add to Proc.Ops, and the OnOp reports and
	// history records they leave.
	ops, reports, hist int
	words              []mem.Word // processor 0's returned words, when pinned
	err                string     // the wrong-machine panic, when one is due
}

// TestDoMatchesMethods runs every primitive kind, as a program of named
// calls and as the same program of records through Do, on the CBL machine
// under BC and SC (and as a dance-hall machine) and on the WBI machine,
// observed and not. The two runs must show the same result, per-processor
// stats and counts, returned words, messages, memory, OnOp reports and
// history. Each case also pins what processor 0's calls add to Proc.Ops,
// how many reports and history records they leave, and, on a machine that
// does not offer a kind, the panic.
func TestDoMatchesMethods(t *testing.T) {
	const x, y, z, lk, bar = mem.Addr(100), mem.Addr(200), mem.Addr(300), mem.Addr(400), mem.Addr(600)
	sc := cblConfig(2)
	sc.Consistency = SC
	dance := cblConfig(2)
	dance.DanceHall = true
	cbl := []machineCase{{"CBL/BC", cblConfig(2)}, {"CBL/SC", sc}, {"CBL/BC/dance-hall", dance}}
	wbi := []machineCase{{"WBI", wbiConfig(2)}}
	both := append(append([]machineCase{}, cbl...), wbi...)

	cases := []doCase{
		{name: "read", machines: both,
			p0:  []Op{{Kind: OpRead, Addr: x}},
			ops: 1, reports: 1, hist: 1},
		{name: "write-read", machines: both,
			p0:  []Op{{Kind: OpWrite, Addr: x, Val: 7}, {Kind: OpRead, Addr: x}},
			ops: 2, reports: 2, hist: 2, words: []mem.Word{0, 7}},
		{name: "read-global", machines: both,
			p0:  []Op{{Kind: OpReadGlobal, Addr: x}},
			p1:  []Op{{Kind: OpWriteGlobal, Addr: x, Val: 3}, {Kind: OpFlush}},
			ops: 1, reports: 1, hist: 1},
		{name: "write-global", machines: both,
			p0:  []Op{{Kind: OpWriteGlobal, Addr: y, Val: 5}, {Kind: OpReadGlobal, Addr: y}},
			ops: 2, reports: 2, hist: 2},
		{name: "flush", machines: both,
			p0:  []Op{{Kind: OpWriteGlobal, Addr: y, Val: 5}, {Kind: OpFlush}, {Kind: OpFlush}},
			ops: 3, reports: 3, hist: 1},
		{name: "lock-cache", machines: cbl,
			p0: []Op{{Kind: OpWriteLock, Addr: lk}, {Kind: OpRead, Addr: lk}, {Kind: OpWrite, Addr: lk, Val: 9},
				{Kind: OpWriteGlobal, Addr: lk + 1, Val: 4}, {Kind: OpRead, Addr: lk + 1}, {Kind: OpUnlock, Addr: lk}},
			p1:  []Op{{Kind: OpReadLock, Addr: lk}, {Kind: OpRead, Addr: lk}, {Kind: OpUnlock, Addr: lk}},
			ops: 7, reports: 6, hist: 4},
		{name: "read-update", machines: cbl,
			p0:  []Op{{Kind: OpReadUpdate, Addr: z}, {Kind: OpThink, Val: 40}, {Kind: OpRead, Addr: z}, {Kind: OpResetUpdate, Addr: z}},
			p1:  []Op{{Kind: OpWriteGlobal, Addr: z, Val: 8}, {Kind: OpFlush}},
			ops: 3, reports: 4, hist: 2},
		{name: "unlock-flushes", machines: cbl,
			p0:  []Op{{Kind: OpWriteLock, Addr: lk}, {Kind: OpWriteGlobal, Addr: y, Val: 1}, {Kind: OpThink, Val: 2}, {Kind: OpUnlock, Addr: lk}},
			ops: 4, reports: 4, hist: 1},
		{name: "barrier", machines: cbl,
			p0:  []Op{{Kind: OpWriteGlobal, Addr: y, Val: 2}, {Kind: OpBarrier, Addr: bar, Val: 2}, {Kind: OpRead, Addr: x}},
			p1:  []Op{{Kind: OpThink, Val: 30}, {Kind: OpBarrier, Addr: bar, Val: 2}, {Kind: OpReadGlobal, Addr: y}},
			ops: 4, reports: 3, hist: 2},
		{name: "think", machines: both,
			p0:  []Op{{Kind: OpThink, Val: 3}, {Kind: OpThink}, {Kind: OpRead, Addr: x}},
			ops: 1, reports: 2, hist: 1},
		{name: "private", machines: both,
			p0: []Op{{Kind: OpPrivate, Hit: true}, {Kind: OpPrivate, Write: true, Hit: true},
				{Kind: OpPrivate}, {Kind: OpPrivate, Write: true}, {Kind: OpRead, Addr: x}},
			ops: 5, reports: 5, hist: 1},
		{name: "rmw", machines: wbi,
			p0:  []Op{{Kind: OpRMW, Addr: z, Val: 2}, {Kind: OpRMW, Addr: z, Val: 3}},
			p1:  []Op{{Kind: OpRMW, Addr: z, Val: 10}},
			ops: 2, reports: 2, hist: 2},
		{name: "rmw-alone", machines: wbi,
			p0:  []Op{{Kind: OpThink, Val: 500}, {Kind: OpRMW, Addr: z, Val: 2}, {Kind: OpRMW, Addr: z, Val: 3}},
			ops: 2, reports: 3, hist: 2, words: []mem.Word{0, 0, 2}},
		{name: "rmw-on-CBL", machines: cbl,
			p0:  []Op{{Kind: OpRMW, Addr: z, Val: 1}},
			err: "RMW is not a primitive of the CBL machine"},
	}
	for _, k := range []struct {
		kind OpKind
		name string
		val  mem.Word
	}{
		{OpReadUpdate, "READ-UPDATE", 0}, {OpResetUpdate, "RESET-UPDATE", 0},
		{OpReadLock, "READ-LOCK", 0}, {OpWriteLock, "WRITE-LOCK", 0},
		{OpUnlock, "UNLOCK", 0}, {OpBarrier, "BARRIER", 1},
	} {
		cases = append(cases, doCase{name: k.name + "-on-WBI", machines: wbi,
			p0:  []Op{{Kind: k.kind, Addr: lk, Val: k.val}},
			err: k.name + " is not a primitive of the WBI machine"})
	}

	for _, c := range cases {
		for _, mc := range c.machines {
			for _, observe := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/observe=%v", c.name, mc.name, observe), func(t *testing.T) {
					progs := [][]Op{c.p0, c.p1}
					named := runOps(mc.cfg, progs, false, observe)
					done := runOps(mc.cfg, progs, true, observe)
					if !reflect.DeepEqual(named, done) {
						t.Fatalf("named calls and Do differ:\nnamed %+v\n   Do %+v", named, done)
					}
					if c.err != "" {
						if !strings.Contains(named.err, c.err) {
							t.Fatalf("err = %q, want %q", named.err, c.err)
						}
					} else if named.err != "" {
						t.Fatal(named.err)
					}
					if got := named.counts[0][0]; got != uint64(c.ops) {
						t.Errorf("processor 0 counted %d ops, want %d", got, c.ops)
					}
					if c.words != nil && !reflect.DeepEqual(named.words[0], c.words) {
						t.Errorf("processor 0 read %v, want %v", named.words[0], c.words)
					}
					if !observe {
						return
					}
					var reports, hist int
					for _, r := range named.seen {
						if r.proc == 0 {
							reports++
						}
					}
					for _, h := range named.hist {
						if h.Proc == 0 {
							hist++
						}
					}
					if reports != c.reports || hist != c.hist {
						t.Errorf("processor 0 left %d reports and %d history records, want %d and %d",
							reports, hist, c.reports, c.hist)
					}
				})
			}
		}
	}
}
