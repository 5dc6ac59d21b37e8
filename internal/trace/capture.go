package trace

import "ssmp/internal/core"

// Capture attaches a recorder to a machine (before Run) and returns a
// builder whose Trace() yields the run's primitive stream as a replayable
// trace — the capture half of the capture/replay workflow the paper's
// trace-driven-simulation future work implies.
//
// Caveats, by construction of the trace format: RMW operations are
// normalized to fetch-and-add (exact for counters and test-and-set
// acquisition from a free lock), and data-dependent control flow in the
// original programs is flattened into the sequence that actually executed —
// replaying on a machine with different timing may therefore represent a
// slightly different program behaviour, which is inherent to trace-driven
// simulation.
func Capture(m *core.Machine) *Builder {
	b := &Builder{t: &Trace{Procs: make([][]core.Op, m.Config().Nodes)}}
	m.OnOp(func(proc int, o core.Op) { b.t.Procs[proc] = append(b.t.Procs[proc], o) })
	return b
}

// Builder accumulates captured events.
type Builder struct {
	t *Trace
}

// Trace returns the captured trace (valid after the run completes).
func (b *Builder) Trace() *Trace { return b.t }
