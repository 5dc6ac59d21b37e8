// Package trace implements trace-driven simulation, the evaluation
// alternative the paper names as future work (§6): a compact text format
// for per-processor memory-reference traces, a writer and parser for it,
// and a replayer that turns traces into machine programs.
//
// Format: line-oriented, '#' comments, a `proc <id>` header (0 <= id <
// MaxProcs) starting each processor's section, then one event per line,
// each the text form of the core.Op record of one primitive call:
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
)

// names are the format's keywords, indexed by core.OpKind.
var names = [...]string{
	core.OpRead: "r", core.OpWrite: "w", core.OpReadGlobal: "rg", core.OpWriteGlobal: "wg",
	core.OpReadUpdate: "ru", core.OpResetUpdate: "xu", core.OpFlush: "fl",
	core.OpReadLock: "rl", core.OpWriteLock: "wl", core.OpUnlock: "ul",
	core.OpBarrier: "bar", core.OpThink: "think", core.OpPrivate: "priv", core.OpRMW: "rmw",
}

var kindByName = func() map[string]core.OpKind {
	m := make(map[string]core.OpKind, len(names))
	for k, n := range names {
		m[n] = core.OpKind(k)
	}
	return m
}()

// MaxProcs bounds the processor ids a trace may name. Parse keeps one
// section for every id up to the largest it has seen, so without a bound a
// single header line could ask for any amount of memory.
const MaxProcs = 1 << 16

// Trace is a per-processor event list.
type Trace struct {
	// Procs[i] is processor i's event sequence, each event the record of
	// one primitive call.
	Procs [][]core.Op
}

// Write renders the trace in the text format.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i, ops := range t.Procs {
		fmt.Fprintf(bw, "proc %d\n", i)
		for _, o := range ops {
			if int(o.Kind) >= len(names) {
				return fmt.Errorf("trace: unknown op %d", o.Kind)
			}
			name := names[o.Kind]
			switch o.Kind {
			case core.OpRead, core.OpReadGlobal, core.OpReadUpdate, core.OpResetUpdate,
				core.OpReadLock, core.OpWriteLock, core.OpUnlock:
				fmt.Fprintf(bw, "%s %d\n", name, o.Addr)
			case core.OpWrite, core.OpWriteGlobal, core.OpRMW, core.OpBarrier:
				fmt.Fprintf(bw, "%s %d %d\n", name, o.Addr, o.Val)
			case core.OpFlush:
				fmt.Fprintf(bw, "%s\n", name)
			case core.OpThink:
				fmt.Fprintf(bw, "%s %d\n", name, o.Val)
			case core.OpPrivate:
				rw, hm := "r", "m"
				if o.Write {
					rw = "w"
				}
				if o.Hit {
					hm = "h"
				}
				fmt.Fprintf(bw, "%s %s %s\n", name, rw, hm)
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
		kind, ok := kindByName[fields[0]]
		if !ok {
			return nil, fmt.Errorf("trace:%d: unknown op %q", lineNo, fields[0])
		}
		o := core.Op{Kind: kind}
		argN := func(i int) (mem.Word, error) {
			if i >= len(fields) {
				return 0, fmt.Errorf("trace:%d: missing argument", lineNo)
			}
			v, err := strconv.ParseUint(fields[i], 10, 64)
			return mem.Word(v), err
		}
		var err error
		var v mem.Word
		switch kind {
		case core.OpRead, core.OpReadGlobal, core.OpReadUpdate, core.OpResetUpdate,
			core.OpReadLock, core.OpWriteLock, core.OpUnlock:
			v, err = argN(1)
			o.Addr = mem.Addr(v)
		case core.OpWrite, core.OpWriteGlobal, core.OpRMW, core.OpBarrier:
			v, err = argN(1)
			o.Addr = mem.Addr(v)
			if err == nil {
				o.Val, err = argN(2)
			}
		case core.OpThink:
			o.Val, err = argN(1)
		case core.OpFlush:
		case core.OpPrivate:
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace:%d: priv needs r|w h|m", lineNo)
			}
			switch fields[1] {
			case "r":
			case "w":
				o.Write = true
			default:
				return nil, fmt.Errorf("trace:%d: priv mode %q", lineNo, fields[1])
			}
			switch fields[2] {
			case "m":
			case "h":
				o.Hit = true
			default:
				return nil, fmt.Errorf("trace:%d: priv outcome %q", lineNo, fields[2])
			}
		}
		if err != nil {
			return nil, fmt.Errorf("trace:%d: %v", lineNo, err)
		}
		t.Procs[cur] = append(t.Procs[cur], o)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// Programs turns the trace into machine programs (one per processor; nil
// for processors without a section) that perform each event with
// core.Proc.Do. The machine must have at least len(Procs) nodes.
func (t *Trace) Programs(nodes int) ([]core.Program, error) {
	if len(t.Procs) > nodes {
		return nil, fmt.Errorf("trace: %d processor sections for %d nodes", len(t.Procs), nodes)
	}
	progs := make([]core.Program, nodes)
	for i, ops := range t.Procs {
		if len(ops) == 0 {
			continue
		}
		progs[i] = func(p *core.Proc) {
			for _, o := range ops {
				p.Do(o)
			}
		}
	}
	return progs, nil
}
