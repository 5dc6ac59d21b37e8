package trace

import (
	"bytes"
	"testing"

	"ssmp/internal/core"
	"ssmp/internal/mem"
)

// TestCaptureReplayRoundTrip records a live run, replays the captured trace
// on a fresh identical machine, and checks the replay reproduces the
// original's completion time and memory effects exactly (same machine, same
// primitive stream, deterministic simulator).
func TestCaptureReplayRoundTrip(t *testing.T) {
	mkCfg := func() core.Config {
		cfg := core.DefaultConfig(4)
		cfg.CacheSets = 32
		return cfg
	}
	// Original run: lock-protected counter plus assorted primitives.
	m1 := core.NewMachine(mkCfg())
	b := Capture(m1)
	progs := make([]core.Program, 4)
	for i := 0; i < 4; i++ {
		i := i
		progs[i] = func(p *core.Proc) {
			for k := 0; k < 6; k++ {
				p.WriteLock(100)
				p.Write(100, p.Read(100)+1)
				p.Unlock(100)
				p.WriteGlobal(mem.Addr(200+8*i), mem.Word(k))
				p.Think(5)
				p.PrivateRef(false, k%5 != 0)
			}
			p.FlushBuffer()
			p.Barrier(300, 4)
		}
	}
	res1, err := m1.Run(progs)
	if err != nil {
		t.Fatal(err)
	}

	// The captured trace must survive the text format.
	var buf bytes.Buffer
	if err := b.Trace().Write(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Replay on a fresh machine.
	m2 := core.NewMachine(mkCfg())
	replayProgs, err := tr.Programs(4)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := m2.Run(replayProgs)
	if err != nil {
		t.Fatal(err)
	}

	if res1.Cycles != res2.Cycles {
		t.Fatalf("replay cycles %d != original %d", res2.Cycles, res1.Cycles)
	}
	if res1.Messages != res2.Messages {
		t.Fatalf("replay messages %d != original %d", res2.Messages, res1.Messages)
	}
	if got := m2.ReadMemory(100); got != 24 {
		t.Fatalf("replayed counter = %d, want 24", got)
	}
	for i := 0; i < 4; i++ {
		a := mem.Addr(200 + 8*i)
		if m1.ReadMemory(a) != m2.ReadMemory(a) {
			t.Fatalf("memory divergence at %d", a)
		}
	}
}

// TestCaptureRMWNormalization: fetch-and-add RMWs capture exactly.
func TestCaptureRMWNormalization(t *testing.T) {
	cfg := core.DefaultConfig(2)
	cfg.Protocol = core.ProtoWBI
	cfg.CacheSets = 16
	m := core.NewMachine(cfg)
	b := Capture(m)
	progs := make([]core.Program, 2)
	progs[0] = func(p *core.Proc) {
		p.RMW(100, func(w mem.Word) mem.Word { return w + 3 })
		p.RMW(100, func(w mem.Word) mem.Word { return w + 4 })
	}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	evs := b.Trace().Procs[0]
	if len(evs) != 2 || evs[0].Kind != core.OpRMW || evs[0].Val != 3 || evs[1].Val != 4 {
		t.Fatalf("captured = %+v", evs)
	}
	// Replay accumulates the same total.
	m2 := core.NewMachine(cfg)
	progs2, err := b.Trace().Programs(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.Run(progs2); err != nil {
		t.Fatal(err)
	}
}
