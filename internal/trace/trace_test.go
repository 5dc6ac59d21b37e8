package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"ssmp/internal/core"
	"ssmp/internal/mem"
)

func sample() *Trace {
	return &Trace{Procs: [][]core.Op{
		{
			{Kind: core.OpWriteLock, Addr: 100},
			{Kind: core.OpWrite, Addr: 100, Val: 7},
			{Kind: core.OpUnlock, Addr: 100},
			{Kind: core.OpThink, Val: 12},
			{Kind: core.OpPrivate, Write: true, Hit: false},
			{Kind: core.OpBarrier, Addr: 300, Val: 2},
		},
		{
			{Kind: core.OpWriteGlobal, Addr: 200, Val: 5},
			{Kind: core.OpFlush},
			{Kind: core.OpReadUpdate, Addr: 200},
			{Kind: core.OpResetUpdate, Addr: 200},
			{Kind: core.OpBarrier, Addr: 300, Val: 2},
		},
	}}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sample()
	if len(got.Procs) != len(want.Procs) {
		t.Fatalf("procs = %d, want %d", len(got.Procs), len(want.Procs))
	}
	for i := range want.Procs {
		if len(got.Procs[i]) != len(want.Procs[i]) {
			t.Fatalf("proc %d: %d events, want %d", i, len(got.Procs[i]), len(want.Procs[i]))
		}
		for j, e := range want.Procs[i] {
			if got.Procs[i][j] != e {
				t.Fatalf("proc %d event %d = %+v, want %+v", i, j, got.Procs[i][j], e)
			}
		}
	}
}

// commentedTrace, sparseTrace and badTraces are the hand-written inputs of
// the parser tests; FuzzParse starts from them too.
const (
	commentedTrace = `
# a trace
proc 0

# read something
r 40
think 3
`
	sparseTrace = "proc 2\nr 40\n"
)

var badTraces = []string{
	"r 40",              // event before proc header
	"proc x",            // bad id
	"proc 65536",        // id at MaxProcs
	"proc 4000000000",   // id far past MaxProcs
	"proc 0\nzz 1",      // unknown op
	"proc 0\nw 1",       // missing value
	"proc 0\npriv r",    // missing hit/miss
	"proc 0\npriv q h",  // bad mode
	"proc 0\npriv r q",  // bad outcome
	"proc 0\nbar 300",   // missing count
	"proc 0\nr abc",     // bad addr
	"proc 0\nthink abc", // bad cycles
}

func TestParseCommentsAndBlanks(t *testing.T) {
	tr, err := Parse(strings.NewReader(commentedTrace))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Procs) != 1 || len(tr.Procs[0]) != 2 {
		t.Fatalf("parsed %+v", tr)
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range badTraces {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

// TestParseProcIDBound pins the largest id a header may name: one below
// MaxProcs parses into MaxProcs sections, and MaxProcs itself is refused.
func TestParseProcIDBound(t *testing.T) {
	tr, err := Parse(strings.NewReader(fmt.Sprintf("proc %d\nfl\n", MaxProcs-1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Procs) != MaxProcs {
		t.Fatalf("%d sections, want %d", len(tr.Procs), MaxProcs)
	}
	if _, err := Parse(strings.NewReader(fmt.Sprintf("proc %d\n", MaxProcs))); err == nil {
		t.Fatalf("proc %d accepted", MaxProcs)
	}
}

func TestSparseProcSections(t *testing.T) {
	tr, err := Parse(strings.NewReader(sparseTrace))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Procs) != 3 || len(tr.Procs[0]) != 0 || len(tr.Procs[2]) != 1 {
		t.Fatalf("parsed %+v", tr)
	}
}

// replay runs tr on m, each processor's events as its op list, and
// returns the run's result.
func replay(t *testing.T, m *core.Machine, tr *Trace) core.Result {
	t.Helper()
	ops := make([][]core.Op, m.Config().Nodes)
	copy(ops, tr.Procs)
	res, _, err := m.RunOps(ops)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestReplayOnCBLMachine(t *testing.T) {
	cfg := core.DefaultConfig(4)
	cfg.CacheSets = 16
	m := core.NewMachine(cfg)
	replay(t, m, sample())
	// The traced critical-section write landed in memory when the lock
	// was released.
	if got := m.ReadMemory(100); got != 7 {
		t.Fatalf("mem[100] = %d, want 7", got)
	}
	if got := m.ReadMemory(200); got != 5 {
		t.Fatalf("mem[200] = %d, want 5", got)
	}
}

func TestReplayRMWOnWBI(t *testing.T) {
	cfg := core.DefaultConfig(2)
	cfg.Protocol = core.ProtoWBI
	cfg.CacheSets = 16
	m := core.NewMachine(cfg)
	ops := [][]core.Op{
		{{Kind: core.OpRMW, Addr: 50, Val: 3}, {Kind: core.OpRMW, Addr: 50, Val: 4}, {Kind: core.OpRead, Addr: 50}},
		nil,
	}
	_, words, err := m.RunOps(ops)
	if err != nil {
		t.Fatal(err)
	}
	// Each fetch-and-add returns the word it replaced, and the read sees
	// both adds; the dirty line stays in the owner's cache, not memory.
	if got, want := words[0], []mem.Word{0, 3, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replay read %v, want %v", got, want)
	}
}

// Property: Write/Parse round-trips arbitrary event sequences.
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []uint32) bool {
		tr := &Trace{Procs: make([][]core.Op, 2)}
		for i, r := range raw {
			ev := core.Op{Kind: core.OpKind(r % 14)}
			switch ev.Kind {
			case core.OpPrivate:
				ev.Write = r&0x100 != 0
				ev.Hit = r&0x200 != 0
			case core.OpFlush:
			case core.OpThink:
				ev.Val = mem.Word(r >> 8)
			default:
				ev.Addr = mem.Addr(r >> 8)
				switch ev.Kind {
				case core.OpWrite, core.OpWriteGlobal, core.OpRMW, core.OpBarrier:
					ev.Val = mem.Word(r >> 16)
				}
			}
			tr.Procs[i%2] = append(tr.Procs[i%2], ev)
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return false
		}
		got, err := Parse(&buf)
		if err != nil {
			return false
		}
		for i := range tr.Procs {
			if len(got.Procs[i]) != len(tr.Procs[i]) {
				return false
			}
			for j := range tr.Procs[i] {
				if got.Procs[i][j] != tr.Procs[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzParse feeds Parse arbitrary text, starting from the inputs above and
// a synthesized trace. Parse must never panic, and a trace it accepts must
// come back unchanged from Write and a second Parse.
func FuzzParse(f *testing.F) {
	p := DefaultSynthParams(4)
	p.Events = 20
	syn, err := Synthesize(p)
	if err != nil {
		f.Fatal(err)
	}
	for _, tr := range []*Trace{sample(), syn} {
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	for _, in := range append([]string{commentedTrace, sparseTrace}, badTraces...) {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := Parse(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("Write: %v", err)
		}
		back, err := Parse(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("Parse of Write's output: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", back, tr)
		}
	})
}
