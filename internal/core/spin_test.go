package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ssmp/internal/history"
	"ssmp/internal/mem"
	"ssmp/internal/metrics"
	"ssmp/internal/sim"
)

// waitFunc is a spin-wait as a program calls it: Proc.Spin, or the loop
// it replaces.
type waitFunc func(p *Proc, probe OpKind, a mem.Addr, c SpinCond, v mem.Word) mem.Word

// spinOnLoop is Proc.Spin.
func spinOnLoop(p *Proc, probe OpKind, a mem.Addr, c SpinCond, v mem.Word) mem.Word {
	return p.Spin(probe, a, c, v)
}

// spinInProgram is the loop Proc.Spin replaces, written out with the named
// calls: probe, and think between probes while the word says wait.
func spinInProgram(p *Proc, probe OpKind, a mem.Addr, c SpinCond, v mem.Word) mem.Word {
	read := func() mem.Word {
		if probe == OpRead {
			return p.Read(a)
		}
		return p.ReadUpdate(a)
	}
	waiting := func(w mem.Word) bool {
		switch c {
		case WhileEqual:
			return w == v
		case WhileUnequal:
			return w != v
		}
		return w < v
	}
	w := read()
	for waiting(w) {
		p.Think(SpinRecheck)
		w = read()
	}
	return w
}

// The words the spin tests wait on and write.
const spinX, spinY, spinLk, spinLk2 = mem.Addr(100), mem.Addr(200), mem.Addr(400), mem.Addr(500)

// spinCase is a program set of TestSpinMatchesLoop: processor 0 waits, and
// processor 1 changes the words it waits on. A case may stop its run: the
// OnOp observer cancels the run's context, or panics, at the report
// numbered cancelAt or panicAt.
type spinCase struct {
	name     string
	machines []machineCase
	progs    func(wait waitFunc) []Program
	cancelAt int
	panicAt  int
	// waits is what processor 0's waits return, and err the run's error,
	// when one is due.
	waits []mem.Word
	err   string
}

// spinRun is everything a run of a spinCase shows but the parks, which are
// what Spin saves.
type spinRun struct {
	res    Result
	err    string
	stats  []ProcStats
	counts [][3]uint64 // Ops, PrivHits, PrivMisses per processor
	waits  [][]mem.Word
	msgs   metrics.Collector
	mem    []mem.Word
	seen   []reported
	hist   []history.Op
}

// runSpin runs c's programs on a machine built from cfg with each wait
// performed by wait, with the OnOp observer and the history recorder
// installed when observe is set, and checks that the run leaves no
// goroutine behind.
func runSpin(t *testing.T, cfg Config, c spinCase, wait waitFunc, observe bool) spinRun {
	t.Helper()
	before := runtime.NumGoroutine()
	m := NewMachine(cfg)
	var r spinRun
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reports := 0
	if observe || c.cancelAt > 0 || c.panicAt > 0 {
		m.OnOp(func(proc int, o Op) {
			reports++
			if observe {
				r.seen = append(r.seen, reported{proc, o})
			}
			switch reports {
			case c.cancelAt:
				cancel()
			case c.panicAt:
				panic(fmt.Sprintf("observer stops at report %d", reports))
			}
		})
	}
	var rec *history.Recorder
	if observe {
		rec = m.EnableHistory()
	}
	r.waits = make([][]mem.Word, cfg.Nodes)
	progs := c.progs(func(p *Proc, probe OpKind, a mem.Addr, cond SpinCond, v mem.Word) mem.Word {
		w := wait(p, probe, a, cond, v)
		r.waits[p.Id()] = append(r.waits[p.Id()], w)
		return w
	})
	res, err := m.RunContext(ctx, progs)
	waitGoroutines(t, before)
	r.res = res
	if err != nil {
		r.err = err.Error()
	}
	for i := 0; i < cfg.Nodes; i++ {
		p := m.Proc(i)
		r.stats = append(r.stats, p.Stats())
		r.counts = append(r.counts, [3]uint64{p.Ops, p.PrivHits, p.PrivMisses})
	}
	for _, a := range []mem.Addr{spinX, spinY, spinLk, spinLk2} {
		r.mem = append(r.mem, m.ReadMemory(a))
	}
	r.msgs = *m.Messages()
	if rec != nil {
		r.hist = rec.Ops()
	}
	return r
}

// TestSpinMatchesLoop runs each case once with Proc.Spin and once with the
// loop of READs or READ-UPDATEs and THINKs it replaces, observed and not,
// on the WBI and the CBL machine, serial and on two lanes. The two runs
// must show the same result, stats, op counts, returned words, messages,
// memory, OnOp reports and history, and the same error; neither may leave
// a goroutine behind. The cases cover each condition with each probe, a
// wait the first probe ends, waits on a lock-cached word that never wait
// at all, two processors waiting on each other, a probe whose report
// panics on the event loop, and runs cut by the horizon, a cancelled
// context and a deadlock. A spin-wait always keeps an event pending, so a
// deadlock cannot find a program parked in one: the deadlock case stops
// the run after its waits, and the abort drain reaches parked spin-waits
// in the horizon, cancel and panic cases.
func TestSpinMatchesLoop(t *testing.T) {
	onLanes := func(cfg Config) Config {
		cfg.SimWorkers = 2
		return cfg
	}
	horizon := func(cfg Config) Config {
		cfg.Horizon = 5000
		return cfg
	}
	sc := cblConfig(2)
	sc.Consistency = SC
	wbi := []machineCase{{"WBI", wbiConfig(2)}, {"WBI/workers=2", onLanes(wbiConfig(2))}}
	cbl := []machineCase{{"CBL/BC", cblConfig(2)}, {"CBL/SC", sc}, {"CBL/BC/workers=2", onLanes(cblConfig(2))}}
	wbiHorizon := []machineCase{{"WBI/horizon", horizon(wbiConfig(2))}, {"WBI/workers=2/horizon", horizon(onLanes(wbiConfig(2)))}}
	cblHorizon := []machineCase{{"CBL/horizon", horizon(cblConfig(2))}, {"CBL/workers=2/horizon", horizon(onLanes(cblConfig(2)))}}

	// writes returns processor 1's program: it writes each value to x
	// after a pause, with WRITE on the WBI machine and a flushed
	// WRITE-GLOBAL on the CBL machine, so processor 0's cached copy is
	// invalidated or updated each time.
	writes := func(global bool, vals ...mem.Word) Program {
		return func(p *Proc) {
			for _, v := range vals {
				p.Think(150)
				if global {
					p.WriteGlobal(spinX, v)
					p.FlushBuffer()
				} else {
					p.Write(spinX, v)
				}
			}
		}
	}
	// conds is one case per condition with the given probe and machines.
	conds := func(name string, probe OpKind, global bool, machines []machineCase) []spinCase {
		var cs []spinCase
		for _, k := range []struct {
			name  string
			cond  SpinCond
			v     mem.Word
			waits []mem.Word
		}{
			{"equal", WhileEqual, 0, []mem.Word{1}},
			{"unequal", WhileUnequal, 3, []mem.Word{3}},
			{"below", WhileBelow, 2, []mem.Word{2}},
		} {
			cs = append(cs, spinCase{name: name + "/" + k.name, machines: machines, waits: k.waits,
				progs: func(wait waitFunc) []Program {
					return []Program{func(p *Proc) {
						wait(p, probe, spinX, k.cond, k.v)
						p.Think(5)
						p.Read(spinY)
					}, writes(global, 1, 2, 3)}
				}})
		}
		return cs
	}

	var cases []spinCase
	cases = append(cases, conds("read", OpRead, false, wbi)...)
	cases = append(cases, conds("read-update", OpReadUpdate, true, cbl)...)
	cases = append(cases,
		spinCase{name: "ends-at-first-probe", machines: append(append([]machineCase{}, wbi...), cbl...),
			waits: []mem.Word{0, 0},
			progs: func(wait waitFunc) []Program {
				return []Program{func(p *Proc) {
					wait(p, OpRead, spinX, WhileBelow, 0)
					p.Think(3)
					wait(p, OpRead, spinX, WhileUnequal, 0)
				}, nil}
			}},
		spinCase{name: "lock-cached", machines: cbl, waits: []mem.Word{5, 5},
			// The probes hit the lock cache: local time, no wait.
			progs: func(wait waitFunc) []Program {
				return []Program{func(p *Proc) {
					p.WriteLock(spinLk)
					p.Write(spinLk, 5)
					wait(p, OpRead, spinLk, WhileBelow, 3)
					wait(p, OpRead, spinLk, WhileEqual, 0)
					p.Unlock(spinLk)
				}, nil}
			}},
		spinCase{name: "ping-pong", machines: wbi, waits: []mem.Word{1, 2, 3, 4},
			// Each processor waits for the other's last write, so both
			// spin at once.
			progs: func(wait waitFunc) []Program {
				return []Program{func(p *Proc) {
					for k := mem.Word(1); k <= 4; k++ {
						p.Write(spinX, k)
						wait(p, OpRead, spinY, WhileBelow, k)
					}
				}, func(p *Proc) {
					for k := mem.Word(1); k <= 4; k++ {
						wait(p, OpRead, spinX, WhileBelow, k)
						p.Think(40)
						p.Write(spinY, k)
					}
				}}
			}},
		spinCase{name: "read-update-on-WBI", machines: wbi,
			err: "READ-UPDATE is not a primitive of the WBI machine",
			progs: func(wait waitFunc) []Program {
				return []Program{func(p *Proc) { wait(p, OpReadUpdate, spinX, WhileEqual, 0) }, nil}
			}},
		spinCase{name: "probe-panics", machines: append(append([]machineCase{}, wbi...), cbl...), panicAt: 12,
			err: "processor 0 panicked: observer stops at report 12",
			progs: func(wait waitFunc) []Program {
				return []Program{func(p *Proc) { wait(p, OpRead, spinX, WhileEqual, 0) }, nil}
			}},
		spinCase{name: "horizon", machines: wbiHorizon, err: "horizon exceeded",
			progs: func(wait waitFunc) []Program {
				return []Program{func(p *Proc) { wait(p, OpRead, spinX, WhileEqual, 0) }, nil}
			}},
		spinCase{name: "horizon/lock-cached", machines: cblHorizon, err: "horizon exceeded",
			// More local probes than a batch holds, replayed batch by
			// batch until the horizon.
			progs: func(wait waitFunc) []Program {
				return []Program{func(p *Proc) {
					p.WriteLock(spinLk)
					wait(p, OpRead, spinLk, WhileEqual, 0)
				}, nil}
			}},
		spinCase{name: "cancel", machines: append(append([]machineCase{}, wbi...), cbl...), cancelAt: 40,
			err: context.Canceled.Error(),
			progs: func(wait waitFunc) []Program {
				return []Program{func(p *Proc) { wait(p, OpRead, spinX, WhileEqual, 0) },
					func(p *Proc) { wait(p, OpRead, spinY, WhileEqual, 0) }}
			}},
		spinCase{name: "deadlock", machines: cbl, waits: []mem.Word{1},
			err: "core: deadlock — processors [0 1] blocked",
			// Processor 0 waits for processor 1's signal, and then each
			// waits for the lock the other holds.
			progs: func(wait waitFunc) []Program {
				return []Program{func(p *Proc) {
					p.WriteLock(spinLk)
					wait(p, OpReadUpdate, spinX, WhileBelow, 1)
					p.WriteLock(spinLk2)
				}, func(p *Proc) {
					p.WriteLock(spinLk2)
					p.Think(200)
					p.WriteGlobal(spinX, 1)
					p.FlushBuffer()
					p.WriteLock(spinLk)
				}}
			}},
	)

	for _, c := range cases {
		for _, mc := range c.machines {
			for _, observe := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/observe=%v", c.name, mc.name, observe), func(t *testing.T) {
					loop := runSpin(t, mc.cfg, c, spinInProgram, observe)
					spin := runSpin(t, mc.cfg, c, spinOnLoop, observe)
					if !reflect.DeepEqual(loop, spin) {
						t.Fatalf("the loop and Spin differ:\nloop %+v\nspin %+v", loop, spin)
					}
					if c.err != "" {
						if !strings.Contains(spin.err, c.err) {
							t.Fatalf("err = %q, want %q", spin.err, c.err)
						}
					} else if spin.err != "" {
						t.Fatal(spin.err)
					}
					if c.waits != nil && !reflect.DeepEqual(spin.waits[0], c.waits) {
						t.Errorf("processor 0's waits returned %v, want %v", spin.waits[0], c.waits)
					}
					if observe && c.err == "" && len(spin.seen) == 0 {
						t.Error("the observer saw no call")
					}
				})
			}
		}
	}
}

// spinRelease is processor 1's program in TestSpinParksOnce and
// BenchmarkProcPark: it writes 1 to x once processor 0, spinning on x from
// cycle 0 while it reads 0, has made n-1 probes. Each probe but the first
// hits in processor 0's cache, one cache cycle, and its recheck takes
// SpinRecheck more; the write invalidates the copy, so probe n misses and
// reads 1.
func spinRelease(n int) Program {
	return func(p *Proc) {
		p.Think(sim.Time(n-1) * (p.Machine().Config().Timing.CacheHit + SpinRecheck))
		p.Write(spinX, 1)
	}
}

// TestSpinParksOnce: a wait of thousands of probes parks its program once,
// where the loop it replaces parks once per probe, and a wait the first
// probe ends without waiting parks it not at all.
func TestSpinParksOnce(t *testing.T) {
	for _, c := range []struct {
		name  string
		wait  waitFunc
		parks func(probes uint64) uint64
	}{
		{"Spin", spinOnLoop, func(uint64) uint64 { return 1 }},
		{"loop", spinInProgram, func(probes uint64) uint64 { return probes }},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := NewMachine(wbiConfig(2))
			var parks, probes uint64
			prog := func(p *Proc) {
				before, ops := p.parks, p.Ops
				c.wait(p, OpRead, spinX, WhileEqual, 0)
				parks, probes = p.parks-before, p.Ops-ops
			}
			if _, err := m.Run([]Program{prog, spinRelease(4096)}); err != nil {
				t.Fatal(err)
			}
			if probes != 4096 {
				t.Fatalf("the wait made %d probes, want 4096", probes)
			}
			if want := c.parks(probes); parks != want {
				t.Errorf("a wait of %d probes parked %d times, want %d", probes, parks, want)
			}
		})
	}
	m := NewMachine(cblConfig(2))
	var parks uint64
	prog := func(p *Proc) {
		p.WriteLock(spinLk)
		before := p.parks
		p.Spin(OpRead, spinLk, WhileEqual, 1)
		parks = p.parks - before
		p.Unlock(spinLk)
	}
	if _, err := m.Run([]Program{prog, nil}); err != nil {
		t.Fatal(err)
	}
	if parks != 0 {
		t.Errorf("a wait on a lock-cached word that ends at once parked %d times, want 0", parks)
	}
}

// TestSpinAllocs: a spin-wait allocates nothing. On a pooled machine a run
// whose processor 0 waits 32 times makes as many allocations as one where
// it waits once: those of the two programs' coroutines.
func TestSpinAllocs(t *testing.T) {
	allocs := func(waits int) float64 {
		progs := []Program{func(p *Proc) {
			for k := 1; k <= waits; k++ {
				p.Spin(OpRead, spinX, WhileBelow, mem.Word(k))
			}
		}, func(p *Proc) {
			for k := 1; k <= waits; k++ {
				p.Think(100)
				p.Write(spinX, mem.Word(k))
			}
		}}
		cfg := wbiConfig(2)
		m := GetMachine(cfg)
		defer PutMachine(m)
		if _, err := m.Run(progs); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			m.Reset(cfg)
			if _, err := m.Run(progs); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(32); many != one {
		t.Errorf("32 waits made %v allocations, 1 wait %v: a wait allocates", many, one)
	}
}
