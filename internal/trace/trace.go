// Package trace implements trace-driven simulation, the evaluation
// alternative the paper names as future work (§6): a compact text format
// for per-processor memory-reference traces, a writer and parser for it,
// and a replayer that turns traces into machine programs.
//
// Format: line-oriented, '#' comments, a `proc <id>` header (0 <= id <
// MaxProcs) starting each processor's section, then one event per line:
//
//	r <addr>          private read
//	w <addr> <val>    private write
//	rg <addr>         read-global
//	wg <addr> <val>   write-global
//	ru <addr>         read-update
//	xu <addr>         reset-update
//	fl                flush-buffer
//	rl <addr>         read-lock
//	wl <addr>         write-lock
//	ul <addr>         unlock
//	bar <addr> <n>    barrier with n participants
//	think <cycles>    local computation
//	priv <r|w> <h|m>  modeled private reference (hit/miss)
//	rmw <addr> <add>  atomic fetch-and-add (WBI machine)
//
// Lock, update, barrier and flush events require the matching machine
// protocol, exactly as the live primitives do.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ssmp/internal/core"
	"ssmp/internal/mem"
	"ssmp/internal/sim"
)

// Op enumerates trace event kinds.
type Op uint8

// Trace event kinds.
const (
	OpRead Op = iota
	OpWrite
	OpReadGlobal
	OpWriteGlobal
	OpReadUpdate
	OpResetUpdate
	OpFlush
	OpReadLock
	OpWriteLock
	OpUnlock
	OpBarrier
	OpThink
	OpPrivate
	OpRMW
)

var opNames = map[Op]string{
	OpRead: "r", OpWrite: "w", OpReadGlobal: "rg", OpWriteGlobal: "wg",
	OpReadUpdate: "ru", OpResetUpdate: "xu", OpFlush: "fl",
	OpReadLock: "rl", OpWriteLock: "wl", OpUnlock: "ul",
	OpBarrier: "bar", OpThink: "think", OpPrivate: "priv", OpRMW: "rmw",
}

var opByName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, n := range opNames {
		m[n] = op
	}
	return m
}()

// Event is one trace record.
type Event struct {
	Op   Op
	Addr mem.Addr
	// Val is the written value, RMW addend, barrier participant count, or
	// think duration.
	Val uint64
	// Write and Hit qualify OpPrivate events.
	Write, Hit bool
}

// MaxProcs bounds the processor ids a trace may name. Parse keeps one
// section for every id up to the largest it has seen, so without a bound a
// single header line could ask for any amount of memory.
const MaxProcs = 1 << 16

// Trace is a per-processor event list.
type Trace struct {
	// Procs[i] is processor i's event sequence.
	Procs [][]Event
}

// Write renders the trace in the text format.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i, evs := range t.Procs {
		fmt.Fprintf(bw, "proc %d\n", i)
		for _, e := range evs {
			name := opNames[e.Op]
			switch e.Op {
			case OpRead, OpReadGlobal, OpReadUpdate, OpResetUpdate,
				OpReadLock, OpWriteLock, OpUnlock:
				fmt.Fprintf(bw, "%s %d\n", name, e.Addr)
			case OpWrite, OpWriteGlobal, OpRMW:
				fmt.Fprintf(bw, "%s %d %d\n", name, e.Addr, e.Val)
			case OpBarrier:
				fmt.Fprintf(bw, "%s %d %d\n", name, e.Addr, e.Val)
			case OpFlush:
				fmt.Fprintf(bw, "%s\n", name)
			case OpThink:
				fmt.Fprintf(bw, "%s %d\n", name, e.Val)
			case OpPrivate:
				rw, hm := "r", "m"
				if e.Write {
					rw = "w"
				}
				if e.Hit {
					hm = "h"
				}
				fmt.Fprintf(bw, "%s %s %s\n", name, rw, hm)
			default:
				return fmt.Errorf("trace: unknown op %d", e.Op)
			}
		}
	}
	return bw.Flush()
}

// Parse reads a trace from the text format.
func Parse(r io.Reader) (*Trace, error) {
	t := &Trace{}
	cur := -1
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "proc" {
			if len(fields) != 2 {
				return nil, fmt.Errorf("trace:%d: malformed proc header", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil || id < 0 || id >= MaxProcs {
				return nil, fmt.Errorf("trace:%d: bad proc id %q (want 0 to %d)", lineNo, fields[1], MaxProcs-1)
			}
			for len(t.Procs) <= id {
				t.Procs = append(t.Procs, nil)
			}
			cur = id
			continue
		}
		if cur < 0 {
			return nil, fmt.Errorf("trace:%d: event before proc header", lineNo)
		}
		op, ok := opByName[fields[0]]
		if !ok {
			return nil, fmt.Errorf("trace:%d: unknown op %q", lineNo, fields[0])
		}
		ev := Event{Op: op}
		argN := func(i int) (uint64, error) {
			if i >= len(fields) {
				return 0, fmt.Errorf("trace:%d: missing argument", lineNo)
			}
			return strconv.ParseUint(fields[i], 10, 64)
		}
		var err error
		var v uint64
		switch op {
		case OpRead, OpReadGlobal, OpReadUpdate, OpResetUpdate,
			OpReadLock, OpWriteLock, OpUnlock:
			v, err = argN(1)
			ev.Addr = mem.Addr(v)
		case OpWrite, OpWriteGlobal, OpRMW, OpBarrier:
			v, err = argN(1)
			ev.Addr = mem.Addr(v)
			if err == nil {
				ev.Val, err = argN(2)
			}
		case OpThink:
			ev.Val, err = argN(1)
		case OpFlush:
		case OpPrivate:
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace:%d: priv needs r|w h|m", lineNo)
			}
			switch fields[1] {
			case "r":
			case "w":
				ev.Write = true
			default:
				return nil, fmt.Errorf("trace:%d: priv mode %q", lineNo, fields[1])
			}
			switch fields[2] {
			case "m":
			case "h":
				ev.Hit = true
			default:
				return nil, fmt.Errorf("trace:%d: priv outcome %q", lineNo, fields[2])
			}
		}
		if err != nil {
			return nil, fmt.Errorf("trace:%d: %v", lineNo, err)
		}
		t.Procs[cur] = append(t.Procs[cur], ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// Programs turns the trace into machine programs (one per processor; nil
// for processors without a section). The machine must have at least
// len(Procs) nodes.
func (t *Trace) Programs(nodes int) ([]core.Program, error) {
	if len(t.Procs) > nodes {
		return nil, fmt.Errorf("trace: %d processor sections for %d nodes", len(t.Procs), nodes)
	}
	progs := make([]core.Program, nodes)
	for i, evs := range t.Procs {
		if len(evs) == 0 {
			continue
		}
		evs := evs
		progs[i] = func(p *core.Proc) {
			for _, e := range evs {
				replay(p, e)
			}
		}
	}
	return progs, nil
}

func replay(p *core.Proc, e Event) {
	switch e.Op {
	case OpRead:
		p.Read(e.Addr)
	case OpWrite:
		p.Write(e.Addr, mem.Word(e.Val))
	case OpReadGlobal:
		p.ReadGlobal(e.Addr)
	case OpWriteGlobal:
		p.WriteGlobal(e.Addr, mem.Word(e.Val))
	case OpReadUpdate:
		p.ReadUpdate(e.Addr)
	case OpResetUpdate:
		p.ResetUpdate(e.Addr)
	case OpFlush:
		p.FlushBuffer()
	case OpReadLock:
		p.ReadLock(e.Addr)
	case OpWriteLock:
		p.WriteLock(e.Addr)
	case OpUnlock:
		p.Unlock(e.Addr)
	case OpBarrier:
		p.Barrier(e.Addr, int(e.Val))
	case OpThink:
		p.Think(sim.Time(e.Val))
	case OpPrivate:
		p.PrivateRef(e.Write, e.Hit)
	case OpRMW:
		p.RMW(e.Addr, func(w mem.Word) mem.Word { return w + mem.Word(e.Val) })
	default:
		panic(fmt.Sprintf("trace: unknown op %d", e.Op))
	}
}
