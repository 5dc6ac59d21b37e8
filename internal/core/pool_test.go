//go:build go1.24

// The build constraint raises this file's language version to go1.24, the
// first with the weak package, while the module's go line stays at 1.22.

package core

import (
	"context"
	"io"
	"runtime"
	"testing"
	"weak"

	"ssmp/internal/mem"
)

// TestPoolReusesByShape checks that GetMachine hands back a pooled machine
// of the same shape, reset to the new jitter and faults, and builds a new
// one for another shape.
func TestPoolReusesByShape(t *testing.T) {
	cfg := cblConfig(2)
	cfg.Horizon = 12_345 // a shape no other test pools
	m := GetMachine(cfg)
	if _, _, err := m.RunOps(allocOps); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Jitter, other.Faults = 9, resetFaults(6)
	// A machine put back is the next one its goroutine gets, unless the
	// goroutine moved to another thread in between, a garbage collection
	// emptied the pool or the race detector dropped the put, as it does
	// at random; each try puts back the machine it got.
	for try := 1; ; try++ {
		PutMachine(m)
		got := GetMachine(other)
		if got == m {
			break
		}
		if try == 20 {
			t.Fatal("a machine of the same shape was not reused in 20 tries")
		}
		m = got
	}
	if c := m.Config(); c.Jitter != 9 || !c.Faults.Enabled() {
		t.Fatalf("pooled machine's config %+v, want jitter 9 and faults on", c)
	}
	if _, _, err := m.RunOps(allocOps); err != nil {
		t.Fatal(err)
	}
	PutMachine(m)
	bigger := cfg
	bigger.Nodes = 4
	if got := GetMachine(bigger); got == m || got.Config().Nodes != 4 {
		t.Fatal("a machine of another shape was handed out")
	}
}

// TestPutMachinePinsNothing checks that a pooled machine lets go of what
// its last run's caller handed it: the programs (through their finished
// coroutines), the OnOp observer, the message-trace writer and the
// cancellation poll's context. Each reaches one object, which must be
// collectable once the machine is in the pool.
func TestPutMachinePinsNothing(t *testing.T) {
	m, refs := runAndPut(t)
	runtime.GC()
	for i, what := range []string{"program", "OnOp observer", "trace writer", "context"} {
		if refs[i].Value() != nil {
			t.Errorf("the %s is still reachable from the pooled machine", what)
		}
	}
	runtime.KeepAlive(m)
}

type blob struct{ b [1 << 12]byte }

// runAndPut runs a machine from the pool with a program, an observer, a
// trace writer and a context that each reach a blob of their own, puts the
// machine back, and returns it with weak pointers to the blobs.
func runAndPut(t *testing.T) (*Machine, []weak.Pointer[blob]) {
	blobs := []*blob{new(blob), new(blob), new(blob), new(blob)}
	refs := make([]weak.Pointer[blob], len(blobs))
	for i, b := range blobs {
		refs[i] = weak.Make(b)
	}
	prog, obs, trace := blobs[0], blobs[1], blobs[2]
	ctx, cancel := context.WithCancel(context.WithValue(context.Background(), ctxKey{}, blobs[3]))
	defer cancel()
	m := GetMachine(cblConfig(2))
	m.OnOp(func(int, Op) { _ = obs.b[0] })
	m.TraceMessages(writerFunc(func(p []byte) (int, error) { _ = trace.b[0]; return len(p), nil }))
	progs := []Program{
		func(p *Proc) { p.WriteGlobal(0, mem.Word(prog.b[0])); p.FlushBuffer() },
		func(p *Proc) { p.ReadGlobal(0) },
	}
	if _, err := m.RunContext(ctx, progs); err != nil {
		t.Fatal(err)
	}
	PutMachine(m)
	return m, refs
}

type ctxKey struct{}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

var _ io.Writer = writerFunc(nil)
