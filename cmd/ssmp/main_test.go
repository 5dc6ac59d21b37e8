package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCmd runs one ssmp command line in-process with in as its stdin and
// returns its exit status, stdout and stderr.
func runCmd(in string, args ...string) (code int, stdout, stderr string) {
	var out, log bytes.Buffer
	code = (&cli{strings.NewReader(in), &out, &log}).run(args)
	return code, out.String(), log.String()
}

// mustRun runs a command line that must succeed and returns its stdout.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	code, out, log := runCmd("", args...)
	if code != 0 {
		t.Fatalf("ssmp %s: exit %d\n%s", strings.Join(args, " "), code, log)
	}
	return out
}

// TestEveryTool runs each tool once on a tiny input and checks a line of
// what it prints.
func TestEveryTool(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"sim", "-procs", "2"}, "completion:"},
		{[]string{"tables", "-n", "4"}, "(run with -sim to cross-check against the simulator)"},
		{[]string{"figures", "-fig", "4", "-procs", "2,4", "-csv", dir, "-svg", dir}, "wrote " + filepath.Join(dir, "figure4.svg")},
		{[]string{"report", "-procs", "2,4"}, "- Figures 6-7: buffered consistency never loses to SC: **PASS**"},
		{[]string{"litmus", "list"}, "farm-generated tests (ssmp litmus show g... to inspect)"},
		{[]string{"litmus", "run", "-seeds", "2", "mp"}, "mp"},
		{[]string{"litmus", "show", "mp"}, `"name": "mp"`},
		{[]string{"sync", "locks", "-procs", "2", "-algos", "cbl"}, "cbl"},
		{[]string{"sync", "list"}, "barrier algorithms:"},
		{[]string{"kv", "run", "-procs", "2", "-ops", "8"}, "oracle=pass"},
	} {
		if out := mustRun(t, tc.args...); !strings.Contains(out, tc.want) {
			t.Errorf("ssmp %s printed no %q:\n%s", strings.Join(tc.args, " "), tc.want, out)
		}
	}
	for _, name := range []string{"figure4.csv", "figure4.svg"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Error(err)
		}
	}
}

// TestTraceGenReplays pipes a generated trace back into trace, as
// "ssmp trace -gen | ssmp trace" does.
func TestTraceGenReplays(t *testing.T) {
	gen := mustRun(t, "trace", "-gen", "-procs", "2", "-events", "20")
	code, out, log := runCmd(gen, "trace", "-procs", "2")
	if code != 0 || !strings.HasPrefix(out, "replayed 2 processor traces on 2-node CBL (BC)\n") {
		t.Fatalf("replay: exit %d\n%s%s", code, out, log)
	}
}

// TestTraceTooManySections pins that a trace with more processor sections
// than the machine has nodes is a one-line error, not a panic.
func TestTraceTooManySections(t *testing.T) {
	gen := mustRun(t, "trace", "-gen", "-procs", "4", "-events", "20")
	code, _, log := runCmd(gen, "trace", "-procs", "2")
	if code != 1 || log != "ssmp trace: trace: 4 processor sections for 2 nodes\n" {
		t.Fatalf("exit %d, stderr %q", code, log)
	}
}

// TestSimMsgTraceOnLanes pins that -msgtrace traces every message on one
// lane per node, one line per message the run counts, and on the bus,
// which always runs one lane, at any -workers.
func TestSimMsgTraceOnLanes(t *testing.T) {
	code, out, log := runCmd("", "sim", "-procs", "4", "-workers", "2", "-msgtrace", "-tasks", "8")
	if code != 0 || !strings.Contains(out, "engine:         parallel, 4 lanes") ||
		!strings.Contains(out, fmt.Sprintf("messages:       %d\n", strings.Count(log, " -> "))) {
		t.Fatalf("lanes: exit %d\n%s%s", code, out, log)
	}
	code, out, log = runCmd("", "sim", "-procs", "2", "-workers", "2", "-topology", "bus", "-msgtrace", "-tasks", "4")
	if code != 0 || !strings.Contains(out, "engine:         serial") || !strings.Contains(log, " -> ") {
		t.Fatalf("bus: exit %d\n%s%s", code, out, log)
	}
}

// TestMachineNamesParsed pins that sim and trace refuse a misspelt
// protocol, memory model or topology instead of running a default machine,
// and that trace -capture runs the memory model it is given.
func TestMachineNamesParsed(t *testing.T) {
	for _, args := range [][]string{
		{"sim", "-procs", "2", "-proto", "wbx"},
		{"sim", "-procs", "2", "-consistency", "zz"},
		{"sim", "-procs", "2", "-topology", "ring"},
		{"trace", "-capture", "sync", "-procs", "4", "-proto", "wbx", "-consistency", "zz"},
		{"trace", "-capture", "sync", "-procs", "4", "-consistency", "zz"},
		{"trace", "-gen", "-procs", "2", "-proto", "WBI"},
		{"trace", "-procs", "2", "-consistency", "tso"},
	} {
		if code, _, log := runCmd("", args...); code != 1 || !strings.Contains(log, "unknown") {
			t.Errorf("ssmp %s: exit %d, stderr %q", strings.Join(args, " "), code, log)
		}
	}
	bc := mustRun(t, "trace", "-capture", "queue", "-procs", "4")
	sc := mustRun(t, "trace", "-capture", "queue", "-procs", "4", "-consistency", "sc")
	if bc == sc {
		t.Fatal("-capture under -consistency sc captured the BC run's trace")
	}
}

// TestExitStatus pins the one error path: a missing or unknown tool or
// subcommand prints usage and exits 2, a failing tool prints one line and
// exits 1. A processor count that is not a power of two >= 2 fails where a
// machine would be built, and only there.
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		log  string
	}{
		{nil, 2, "usage: ssmp <tool>"},
		{[]string{"nosuch"}, 2, "usage: ssmp <tool>"},
		{[]string{"litmus"}, 2, "ssmp litmus run"},
		{[]string{"sync", "nosuch"}, 2, "ssmp sync locks"},
		{[]string{"kv"}, 2, "ssmp kv soak"},
		{[]string{"litmus", "show", "nosuch"}, 1, "ssmp litmus: "},
		{[]string{"figures", "-procs", "2,x"}, 1, `ssmp figures: bad processor count "x"`},
		{[]string{"sim", "-procs", "3"}, 1, "ssmp sim: core: Nodes must be a power of two >= 2, got 3"},
		{[]string{"sim", "-procs", "4", "-grain", "0"}, 1, "ssmp sim: workload: counts must be positive"},
		{[]string{"sim", "-procs", "4", "-spawn", "1"}, 1, "ssmp sim: workload: spawn probability must be in [0,1), got 1"},
		{[]string{"sim", "-procs", "4", "-workers", "-1"}, 1, "ssmp sim: core: SimWorkers must be >= 0, got -1"},
		{[]string{"sim", "-procs", "4", "-workload", "stencil", "-iters", "0"}, 1, "ssmp sim: workload: stencil needs"},
		{[]string{"trace", "-procs", "3"}, 1, "ssmp trace: core: Nodes must be a power of two >= 2, got 3"},
		{[]string{"trace", "-capture", "queue", "-procs", "3"}, 1, "ssmp trace: core: Nodes must be a power of two >= 2, got 3"},
		{[]string{"sync", "locks", "-procs", "3"}, 1, "ssmp sync: core: Nodes must be a power of two >= 2, got 3"},
		{[]string{"sync", "barriers", "-procs", "3"}, 1, "ssmp sync: core: Nodes must be a power of two >= 2, got 3"},
		{[]string{"sync", "litmus", "-procs", "3"}, 1, "ssmp sync: core: Nodes must be a power of two >= 2, got 3"},
		{[]string{"figures", "-procs", "1", "-fig", "4"}, 1, "ssmp figures: core: Nodes must be a power of two >= 2, got 1"},
		{[]string{"report", "-procs", "3"}, 1, "ssmp report: core: Nodes must be a power of two >= 2, got 3"},
		{[]string{"report", "-procs", "2", "-table-n", "3"}, 1, "ssmp report: core: Nodes must be a power of two >= 2, got 3"},
		{[]string{"tables", "-sim", "-n", "3"}, 1, "ssmp tables: core: Nodes must be a power of two >= 2, got 3"},
		{[]string{"kv", "sweep", "-procs", "0"}, 1, "ssmp kv: core: Nodes must be a power of two >= 2, got 0"},
		{[]string{"tables", "-n", "3"}, 0, ""},
		{[]string{"trace", "-gen", "-procs", "3", "-events", "4"}, 0, ""},
	} {
		code, _, log := runCmd("", tc.args...)
		if code != tc.code || !strings.Contains(log, tc.log) || code == 1 && strings.Count(log, "\n") != 1 {
			t.Errorf("ssmp %s: exit %d, want %d; stderr %q lacks %q",
				strings.Join(tc.args, " "), code, tc.code, log, tc.log)
		}
	}
}
