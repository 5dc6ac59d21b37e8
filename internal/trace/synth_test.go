package trace

import (
	"bytes"
	"testing"

	"ssmp/internal/core"
)

func TestSynthesizeValidation(t *testing.T) {
	if _, err := Synthesize(SynthParams{Procs: 0, Events: 10}); err == nil {
		t.Error("Procs=0 accepted")
	}
	if _, err := Synthesize(SynthParams{Procs: 1, Events: 0}); err == nil {
		t.Error("Events=0 accepted")
	}
	p := DefaultSynthParams(2)
	p.HitRatio = 2
	if _, err := Synthesize(p); err == nil {
		t.Error("HitRatio=2 accepted")
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a, err := Synthesize(DefaultSynthParams(4))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Synthesize(DefaultSynthParams(4))
	var bufA, bufB bytes.Buffer
	a.Write(&bufA)
	b.Write(&bufB)
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("same seed produced different traces")
	}
}

func TestSynthesizedCBLTraceReplays(t *testing.T) {
	p := DefaultSynthParams(4)
	p.Events = 120
	tr, err := Synthesize(p)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through the text format first: the synthetic trace must
	// be expressible.
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	tr2, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(4)
	cfg.CacheSets = 64
	m := core.NewMachine(cfg)
	progs, err := tr2.Programs(4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Messages == 0 {
		t.Fatalf("implausible replay: %+v", res)
	}
}

func TestSynthesizedWBITraceReplays(t *testing.T) {
	p := DefaultSynthParams(4)
	p.Events = 120
	p.WBI = true
	tr, err := Synthesize(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, evs := range tr.Procs {
		for _, e := range evs {
			switch e.Kind {
			case core.OpWriteLock, core.OpUnlock, core.OpReadLock, core.OpWriteGlobal, core.OpFlush, core.OpReadUpdate:
				t.Fatalf("WBI trace contains CBL-only op %v", e.Kind)
			}
		}
	}
	cfg := core.DefaultConfig(4)
	cfg.Protocol = core.ProtoWBI
	cfg.CacheSets = 64
	m := core.NewMachine(cfg)
	progs, err := tr.Programs(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
}
