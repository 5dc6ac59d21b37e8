package core

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ssmp/internal/mem"
	"ssmp/internal/network"
	"ssmp/internal/sim"
	"ssmp/internal/wbuf"
)

func cblConfig(nodes int) Config {
	cfg := DefaultConfig(nodes)
	cfg.CacheSets = 16 // small caches keep tests brisk
	return cfg
}

func wbiConfig(nodes int) Config {
	cfg := cblConfig(nodes)
	cfg.Protocol = ProtoWBI
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(8).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig(8)
	bad.Nodes = 3
	if bad.Validate() == nil {
		t.Error("Nodes=3 accepted")
	}
	bad = DefaultConfig(8)
	bad.BlockWords = 65
	if bad.Validate() == nil {
		t.Error("BlockWords=65 accepted")
	}
	bad = DefaultConfig(8)
	bad.Horizon = 0
	if bad.Validate() == nil {
		t.Error("Horizon=0 accepted")
	}
}

func TestSimpleProgramCompletes(t *testing.T) {
	m := NewMachine(cblConfig(4))
	ran := [4]bool{}
	progs := make([]Program, 4)
	for i := 0; i < 4; i++ {
		i := i
		progs[i] = func(p *Proc) {
			p.Think(10)
			ran[i] = true
		}
	}
	res, err := m.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ran {
		if !r {
			t.Fatalf("program %d never ran", i)
		}
	}
	if res.Cycles < 10 {
		t.Fatalf("Cycles = %d, want >= 10", res.Cycles)
	}
}

func TestNilProgramIdles(t *testing.T) {
	m := NewMachine(cblConfig(4))
	progs := make([]Program, 4)
	progs[0] = func(p *Proc) { p.Think(5) }
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() sim.Time {
		m := NewMachine(cblConfig(8))
		progs := make([]Program, 8)
		for i := 0; i < 8; i++ {
			i := i
			progs[i] = func(p *Proc) {
				for k := 0; k < 20; k++ {
					p.WriteLock(100)
					v := p.Read(100)
					p.Write(100, v+1)
					p.Unlock(100)
					p.Think(sim.Time(i + 1))
				}
			}
		}
		res, err := m.Run(progs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic: %d vs %d cycles", a, b)
	}
}

func TestCBLLockProtectedCounter(t *testing.T) {
	m := NewMachine(cblConfig(8))
	const k = 25
	a := mem.Addr(100)
	progs := make([]Program, 8)
	for i := 0; i < 8; i++ {
		progs[i] = func(p *Proc) {
			for n := 0; n < k; n++ {
				p.WriteLock(a)
				p.Write(a, p.Read(a)+1)
				p.Unlock(a)
			}
		}
	}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if got := m.ReadMemory(a); got != 8*k {
		t.Fatalf("counter = %d, want %d", got, 8*k)
	}
}

func TestUnlockPublishesGlobalWrites(t *testing.T) {
	// Release-consistency correctness under BC: global writes issued
	// inside the critical section must be in memory before the next
	// holder enters.
	m := NewMachine(cblConfig(4))
	lock := mem.Addr(100)
	data := mem.Addr(200) // different block from the lock
	progs := make([]Program, 4)
	var observed []mem.Word
	progs[0] = func(p *Proc) {
		p.WriteLock(lock)
		p.Think(50)
		p.WriteGlobal(data, 7)
		p.Unlock(lock) // CP-Synch: flushes the buffer first
	}
	progs[1] = func(p *Proc) {
		p.Think(5) // ensure proc 0 wins the lock race
		p.WriteLock(lock)
		observed = append(observed, p.ReadGlobal(data))
		p.Unlock(lock)
	}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if len(observed) != 1 || observed[0] != 7 {
		t.Fatalf("observed = %v, want [7] (unlock did not publish writes)", observed)
	}
}

func TestBarrierPublishesGlobalWrites(t *testing.T) {
	m := NewMachine(cblConfig(4))
	bar := mem.Addr(300)
	data := mem.Addr(200)
	var got mem.Word
	progs := make([]Program, 4)
	progs[0] = func(p *Proc) {
		p.WriteGlobal(data, 9)
		p.Barrier(bar, 2) // flushes before arriving
	}
	progs[1] = func(p *Proc) {
		p.Barrier(bar, 2)
		got = p.ReadGlobal(data)
	}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if got != 9 {
		t.Fatalf("read after barrier = %d, want 9", got)
	}
}

func TestBCFasterThanSCOnGlobalWriteBursts(t *testing.T) {
	run := func(c Consistency) sim.Time {
		cfg := cblConfig(8)
		cfg.Consistency = c
		m := NewMachine(cfg)
		progs := make([]Program, 8)
		for i := 0; i < 8; i++ {
			i := i
			progs[i] = func(p *Proc) {
				for k := 0; k < 50; k++ {
					p.WriteGlobal(mem.Addr(1000+16*i+k%8), mem.Word(k))
					p.Think(2)
				}
				p.FlushBuffer()
			}
		}
		res, err := m.Run(progs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	bc, sc := run(BC), run(SC)
	if bc >= sc {
		t.Fatalf("BC (%d) not faster than SC (%d) on write bursts", bc, sc)
	}
}

func TestReadUpdatePrimitiveThroughMachine(t *testing.T) {
	m := NewMachine(cblConfig(4))
	data := mem.Addr(200)
	bar := mem.Addr(300)
	var got mem.Word
	progs := make([]Program, 4)
	progs[0] = func(p *Proc) {
		v := p.ReadUpdate(data)
		if v != 0 {
			t.Errorf("initial read-update = %d", v)
		}
		p.Barrier(bar, 2) // writer proceeds after subscription
		p.Barrier(bar+64, 2)
		got = p.Read(data) // served from the updated line
	}
	progs[1] = func(p *Proc) {
		p.Barrier(bar, 2)
		p.WriteGlobal(data, 5)
		p.Barrier(bar+64, 2) // flush + propagation before release
	}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("subscriber read = %d, want 5", got)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := NewMachine(cblConfig(4))
	progs := make([]Program, 4)
	progs[0] = func(p *Proc) {
		p.WriteLock(100)
		// Never unlocks.
	}
	progs[1] = func(p *Proc) {
		p.Think(5)
		p.WriteLock(100) // waits forever
		p.Unlock(100)
	}
	_, err := m.Run(progs)
	var dl *ErrDeadlock
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
	if len(dl.Stuck) != 1 || dl.Stuck[0] != 1 {
		t.Fatalf("stuck = %v, want [1]", dl.Stuck)
	}
}

func TestHorizonAborts(t *testing.T) {
	cfg := cblConfig(4)
	cfg.Horizon = 100
	m := NewMachine(cfg)
	progs := make([]Program, 4)
	progs[0] = func(p *Proc) {
		for {
			p.Think(50)
		}
	}
	if _, err := m.Run(progs); err == nil {
		t.Fatal("horizon overrun not reported")
	}
}

func TestProgramPanicSurfaces(t *testing.T) {
	m := NewMachine(cblConfig(4))
	progs := make([]Program, 4)
	progs[2] = func(p *Proc) { panic("boom") }
	_, err := m.Run(progs)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic surfaced", err)
	}
}

func TestWBIRMWCounter(t *testing.T) {
	m := NewMachine(wbiConfig(8))
	const k = 25
	progs := make([]Program, 8)
	for i := 0; i < 8; i++ {
		progs[i] = func(p *Proc) {
			for n := 0; n < k; n++ {
				p.RMW(100, func(w mem.Word) mem.Word { return w + 1 })
			}
		}
	}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	// The final owner's dirty line holds the current value; fall back to
	// memory if no owner remains.
	got := m.ReadMemory(100)
	for i := range m.nodes {
		n := &m.nodes[i]
		if l := n.wbiN.Cache().Peek(m.geom.BlockOf(100)); l != nil && l.Excl {
			got = l.Data[m.geom.WordIndex(100)]
		}
	}
	if got != 8*k {
		t.Fatalf("counter = %d, want %d", got, 8*k)
	}
}

// TestRMWCallsOpOnceUnobserved pins that with neither an OnOp observer nor
// a history recorder installed, the cache is the only caller of an RMW's
// function: the values those records carry are computed only for them.
func TestRMWCallsOpOnceUnobserved(t *testing.T) {
	m := NewMachine(wbiConfig(2))
	const k = 10
	calls := 0
	progs := []Program{func(p *Proc) {
		for n := 0; n < k; n++ {
			p.RMW(100, func(w mem.Word) mem.Word { calls++; return w + 1 })
		}
	}, nil}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if calls != k {
		t.Fatalf("op called %d times over %d RMWs, want %d", calls, k, k)
	}
}

func TestWBIMachineRejectsCBLPrimitives(t *testing.T) {
	m := NewMachine(wbiConfig(4))
	progs := make([]Program, 4)
	progs[0] = func(p *Proc) { p.WriteLock(100) }
	if _, err := m.Run(progs); err == nil {
		t.Fatal("WRITE-LOCK on WBI machine did not error")
	}
}

func TestCBLMachineRejectsRMW(t *testing.T) {
	m := NewMachine(cblConfig(4))
	progs := make([]Program, 4)
	progs[0] = func(p *Proc) { p.RMW(100, func(w mem.Word) mem.Word { return w }) }
	if _, err := m.Run(progs); err == nil {
		t.Fatal("RMW on CBL machine did not error")
	}
}

func TestPrivateRefCosts(t *testing.T) {
	m := NewMachine(cblConfig(2))
	var hitT, missT sim.Time
	progs := make([]Program, 2)
	progs[0] = func(p *Proc) {
		t0 := p.Now()
		p.PrivateRef(false, true)
		hitT = p.Now() - t0
		t1 := p.Now()
		p.PrivateRef(false, false)
		missT = p.Now() - t1
	}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if hitT != 1 {
		t.Fatalf("hit cost = %d, want 1", hitT)
	}
	if missT != 1+2+4 {
		t.Fatalf("miss cost = %d, want 7 (hit + 2 local hops + t_m)", missT)
	}
	if m.Proc(0).PrivHits != 1 || m.Proc(0).PrivMisses != 1 {
		t.Fatal("private ref stats wrong")
	}
}

func TestBoundedWriteBufferStallsProcessor(t *testing.T) {
	cfg := cblConfig(2)
	cfg.Buf = wbuf.Options{Capacity: 1}
	m := NewMachine(cfg)
	progs := make([]Program, 2)
	progs[0] = func(p *Proc) {
		for k := 0; k < 10; k++ {
			p.WriteGlobal(mem.Addr(1000+k*8), 1)
		}
		p.FlushBuffer()
	}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		if m.ReadMemory(mem.Addr(1000+k*8)) != 1 {
			t.Fatalf("write %d lost under bounded buffer", k)
		}
	}
}

func TestRunTwicePanics(t *testing.T) {
	m := NewMachine(cblConfig(2))
	progs := make([]Program, 2)
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("second Run did not panic")
		}
	}()
	_, _ = m.Run(progs)
}

func TestReadersAndWritersShareViaCBLModes(t *testing.T) {
	m := NewMachine(cblConfig(8))
	a := mem.Addr(100)
	m.WriteMemory(a, 5)
	var reads []mem.Word
	progs := make([]Program, 8)
	for i := 0; i < 4; i++ {
		progs[i] = func(p *Proc) {
			p.ReadLock(a)
			reads = append(reads, p.Read(a))
			p.Think(20)
			p.Unlock(a)
		}
	}
	progs[4] = func(p *Proc) {
		p.Think(100)
		p.WriteLock(a)
		p.Write(a, p.Read(a)*2)
		p.Unlock(a)
	}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if len(reads) != 4 {
		t.Fatalf("reads = %v", reads)
	}
	for _, r := range reads {
		if r != 5 {
			t.Fatalf("reader saw %d, want 5", r)
		}
	}
	if got := m.ReadMemory(a); got != 10 {
		t.Fatalf("memory = %d, want 10", got)
	}
}

func TestResetUpdateAndHoldsLockThroughProc(t *testing.T) {
	m := NewMachine(cblConfig(4))
	data := mem.Addr(200)
	var heldDuring, heldAfter bool
	progs := make([]Program, 4)
	progs[0] = func(p *Proc) {
		v := p.ReadUpdate(data)
		_ = v
		p.ResetUpdate(data) // explicit unsubscribe through the primitive
		p.WriteLock(300)
		heldDuring = p.HoldsLock(300)
		p.Unlock(300)
		heldAfter = p.HoldsLock(300)
	}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if !heldDuring || heldAfter {
		t.Fatalf("HoldsLock during=%v after=%v, want true/false", heldDuring, heldAfter)
	}
}

func TestProtocolAndConsistencyStrings(t *testing.T) {
	if ProtoCBL.String() != "CBL" || ProtoWBI.String() != "WBI" {
		t.Fatal("protocol names wrong")
	}
	if BC.String() != "BC" || SC.String() != "SC" {
		t.Fatal("consistency names wrong")
	}
	if Protocol(9).String() != "proto?" || Consistency(9).String() != "consistency?" {
		t.Fatal("out-of-range names wrong")
	}
}

// TestParseNames pins that each parser inverts the lower-case String and
// refuses any other spelling.
func TestParseNames(t *testing.T) {
	for _, p := range []Protocol{ProtoCBL, ProtoWBI} {
		if got, err := ParseProtocol(strings.ToLower(p.String())); err != nil || got != p {
			t.Errorf("ParseProtocol(%q) = %v, %v", strings.ToLower(p.String()), got, err)
		}
	}
	for _, c := range []Consistency{BC, SC} {
		if got, err := ParseConsistency(strings.ToLower(c.String())); err != nil || got != c {
			t.Errorf("ParseConsistency(%q) = %v, %v", strings.ToLower(c.String()), got, err)
		}
	}
	for _, bad := range []string{"", "CBL", "wbx", "cbl ", "bc"} {
		if _, err := ParseProtocol(bad); err == nil {
			t.Errorf("ParseProtocol(%q) accepted", bad)
		}
	}
	for _, bad := range []string{"", "SC", "zz", "tso", "cbl"} {
		if _, err := ParseConsistency(bad); err == nil {
			t.Errorf("ParseConsistency(%q) accepted", bad)
		}
	}
}

func TestMachineAccessors(t *testing.T) {
	m := NewMachine(cblConfig(4))
	if m.Config().Nodes != 4 {
		t.Fatal("Config accessor wrong")
	}
	if m.Lanes() != 1 || m.Messages() == nil {
		t.Fatal("a serial machine must run one lane and expose its messages")
	}
	progs := make([]Program, 4)
	progs[0] = func(p *Proc) {
		if p.Id() != 0 || p.Machine() != m {
			t.Error("Proc accessors wrong")
		}
		p.Think(1)
	}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
}

func TestWBIReadGlobalAndFlushAreCoherentNoops(t *testing.T) {
	m := NewMachine(wbiConfig(4))
	var got mem.Word
	progs := make([]Program, 4)
	progs[0] = func(p *Proc) {
		p.Write(100, 7)
		p.FlushBuffer() // no-op on WBI
		got = p.ReadGlobal(100)
	}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("ReadGlobal = %d, want 7", got)
	}
}

func TestMeshTopologyMachine(t *testing.T) {
	cfg := cblConfig(16)
	cfg.Topology = network.TopMesh
	m := NewMachine(cfg)
	const k = 10
	progs := make([]Program, 16)
	for i := 0; i < 16; i++ {
		progs[i] = func(p *Proc) {
			for n := 0; n < k; n++ {
				p.WriteLock(100)
				p.Write(100, p.Read(100)+1)
				p.Unlock(100)
			}
		}
	}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if got := m.ReadMemory(100); got != 16*k {
		t.Fatalf("counter over mesh = %d, want %d", got, 16*k)
	}
}

func TestTraceMessages(t *testing.T) {
	m := NewMachine(cblConfig(4))
	var buf strings.Builder
	m.TraceMessages(&buf)
	progs := make([]Program, 4)
	progs[0] = func(p *Proc) {
		p.WriteLock(100)
		p.Unlock(100)
	}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"lock-req", "lock-grant"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestWriteBufferCoalescingReducesTraffic(t *testing.T) {
	run := func(coalesce bool) uint64 {
		cfg := cblConfig(4)
		cfg.Buf = wbuf.Options{IssueDelay: 8, Coalesce: coalesce}
		m := NewMachine(cfg)
		progs := make([]Program, 4)
		progs[0] = func(p *Proc) {
			// Rapid rewrites of the same word: with an issue window
			// open, coalescing merges them.
			for k := 0; k < 40; k++ {
				p.WriteGlobal(1000, mem.Word(k))
				p.Think(1)
			}
			p.FlushBuffer()
		}
		if _, err := m.Run(progs); err != nil {
			t.Fatal(err)
		}
		// The final value must survive either way.
		if got := m.ReadMemory(1000); got != 39 {
			t.Fatalf("final value = %d, want 39", got)
		}
		return m.Messages().Total()
	}
	plain := run(false)
	merged := run(true)
	if merged >= plain {
		t.Fatalf("coalescing did not reduce traffic: %d vs %d", merged, plain)
	}
}

func TestLockCacheExhaustionSurfacesAsError(t *testing.T) {
	// The paper treats lock-cache capacity as a compile-time-managed
	// resource (§4.3); exceeding it is a program/mapping bug and must
	// surface, not hang. With local time before the third lock, the lock
	// is issued from the event loop at the end of the replay, and the
	// error must still come back as the program's own.
	for _, think := range []sim.Time{0, 5} {
		cfg := cblConfig(4)
		cfg.LockEntries = 2
		m := NewMachine(cfg)
		progs := make([]Program, 4)
		progs[0] = func(p *Proc) {
			p.WriteLock(0)  // block 0
			p.WriteLock(32) // block 8
			p.Think(think)
			p.WriteLock(64) // block 16: exceeds the 2-entry lock cache
			p.Unlock(64)
			p.Unlock(32)
			p.Unlock(0)
		}
		_, err := m.Run(progs)
		if err == nil || !strings.Contains(err.Error(), "processor 0 panicked") ||
			!strings.Contains(err.Error(), "lock cache full") {
			t.Fatalf("think=%d: err = %v, want lock cache full surfaced as processor 0's error", think, err)
		}
	}
}

func TestNestedLocksWithinCapacity(t *testing.T) {
	cfg := cblConfig(4)
	cfg.LockEntries = 2
	m := NewMachine(cfg)
	progs := make([]Program, 4)
	order := []string{}
	progs[0] = func(p *Proc) {
		p.WriteLock(0)
		p.WriteLock(32)
		order = append(order, "locked")
		p.Write(0, 1)
		p.Write(32, 2)
		p.Unlock(32)
		p.Unlock(0)
		order = append(order, "unlocked")
	}
	if _, err := m.Run(progs); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 {
		t.Fatal("nested locks did not complete")
	}
	if m.ReadMemory(0) != 1 || m.ReadMemory(32) != 2 {
		t.Fatal("nested lock data lost")
	}
}

func TestWBIOverMeshAndBus(t *testing.T) {
	for _, top := range []network.Topology{network.TopMesh, network.TopBus} {
		cfg := wbiConfig(8)
		cfg.Topology = top
		m := NewMachine(cfg)
		const k = 10
		progs := make([]Program, 8)
		for i := 0; i < 8; i++ {
			progs[i] = func(p *Proc) {
				for n := 0; n < k; n++ {
					p.RMW(100, func(w mem.Word) mem.Word { return w + 1 })
				}
			}
		}
		if _, err := m.Run(progs); err != nil {
			t.Fatalf("%v: %v", top, err)
		}
		got := m.ReadMemory(100)
		for i := range m.nodes {
			n := &m.nodes[i]
			if l := n.wbiN.Cache().Peek(m.geom.BlockOf(100)); l != nil && l.Excl {
				got = l.Data[m.geom.WordIndex(100)]
			}
		}
		if got != 8*k {
			t.Fatalf("%v: counter = %d, want %d", top, got, 8*k)
		}
	}
}

func TestErrDeadlockMessage(t *testing.T) {
	e := &ErrDeadlock{Stuck: []int{1, 3}}
	if !strings.Contains(e.Error(), "[1 3]") {
		t.Fatalf("message = %q", e.Error())
	}
}

// TestOnOpObserves: the observer sees one report per primitive the
// program calls, carrying the call's record, and none for the local time
// inside a private reference or a lock-cache access, nor for THINK 0. An
// RMW is reported as fetch-and-add.
func TestOnOpObserves(t *testing.T) {
	observe := func(cfg Config, prog Program) []Op {
		m := NewMachine(cfg)
		var seen []Op
		m.OnOp(func(proc int, o Op) {
			if proc != 0 {
				t.Errorf("report from processor %d", proc)
			}
			seen = append(seen, o)
		})
		if _, err := m.Run([]Program{prog, nil}); err != nil {
			t.Fatal(err)
		}
		return seen
	}
	check := func(name string, got, want []Op) {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: observed\n%+v\nwant\n%+v", name, got, want)
		}
	}
	check("CBL", observe(cblConfig(2), func(p *Proc) {
		p.Think(3)
		p.Think(0)
		p.Read(100)
		p.WriteGlobal(100, 1)
		p.FlushBuffer()
		p.PrivateRef(true, false)
		p.PrivateRef(false, true)
		p.WriteLock(200)
		p.Read(200)
		p.Write(200, 4)
		p.WriteGlobal(201, 5)
		p.Unlock(200)
		p.ReadUpdate(300)
		p.ResetUpdate(300)
		p.ReadLock(200)
		p.Unlock(200)
		p.Barrier(400, 1)
	}), []Op{
		{Kind: OpThink, Val: 3},
		{Kind: OpRead, Addr: 100},
		{Kind: OpWriteGlobal, Addr: 100, Val: 1},
		{Kind: OpFlush},
		{Kind: OpPrivate, Write: true},
		{Kind: OpPrivate, Hit: true},
		{Kind: OpWriteLock, Addr: 200},
		{Kind: OpRead, Addr: 200},
		{Kind: OpWrite, Addr: 200, Val: 4},
		{Kind: OpWriteGlobal, Addr: 201, Val: 5},
		{Kind: OpUnlock, Addr: 200},
		{Kind: OpReadUpdate, Addr: 300},
		{Kind: OpResetUpdate, Addr: 300},
		{Kind: OpReadLock, Addr: 200},
		{Kind: OpUnlock, Addr: 200},
		{Kind: OpBarrier, Addr: 400, Val: 1},
	})
	check("WBI", observe(wbiConfig(2), func(p *Proc) {
		p.ReadGlobal(100)
		p.WriteGlobal(100, 2)
		p.FlushBuffer()
		p.Think(0)
		p.PrivateRef(false, false)
		p.RMW(300, func(w mem.Word) mem.Word { return w + 7 })
		p.Write(300, 1)
	}), []Op{
		{Kind: OpReadGlobal, Addr: 100},
		{Kind: OpWriteGlobal, Addr: 100, Val: 2},
		{Kind: OpFlush},
		{Kind: OpPrivate},
		{Kind: OpRMW, Addr: 300, Val: 7},
		{Kind: OpWrite, Addr: 300, Val: 1},
	})
}

func TestWBIDeterminism(t *testing.T) {
	// Regression: the WBI directory's invalidation fan-out must not
	// depend on map iteration order.
	run := func() sim.Time {
		m := NewMachine(wbiConfig(8))
		progs := make([]Program, 8)
		for i := 0; i < 8; i++ {
			i := i
			progs[i] = func(p *Proc) {
				for k := 0; k < 15; k++ {
					p.Read(100)
					if k%3 == i%3 {
						p.Write(100, mem.Word(i*100+k))
					}
					p.Think(sim.Time(i%4 + 1))
				}
			}
		}
		res, err := m.Run(progs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	a, b, c := run(), run(), run()
	if a != b || b != c {
		t.Fatalf("WBI nondeterministic: %d / %d / %d cycles", a, b, c)
	}
}

// TestNewMachineByteBudget bounds what building a machine allocates.
// Caches build their sets, and lock caches their lines, on first use, so a
// 2-node machine pays for controllers and set indexes only; the litmus
// replay builds 64 such machines per test. A 64-node lane machine under
// faults gives each node's fabric view its own transport, which builds
// only that node's sender and receiver rows. Not parallel: TotalAlloc
// counts every goroutine's allocations.
func TestNewMachineByteBudget(t *testing.T) {
	lanesUnderFaults := DefaultConfig(64)
	lanesUnderFaults.SimWorkers = 2
	// The chaos soak's rates (litmus.DefaultChaosRates; core cannot import
	// litmus).
	lanesUnderFaults.Faults = network.FaultConfig{Seed: 3, Rates: network.FaultRates{Drop: 0.03, Dup: 0.03, Delay: 0.1}}
	wbi := DefaultConfig(2)
	wbi.Protocol = ProtoWBI
	for _, c := range []struct {
		name           string
		cfg            Config
		builds, budget uint64
	}{
		{"cbl/2", DefaultConfig(2), 100, 16 << 10},
		{"wbi/2", wbi, 100, 16 << 10},
		{"cbl/64/lanes/chaos", lanesUnderFaults, 10, 3 << 19},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := uint64(0); i < c.builds; i++ {
			NewMachine(c.cfg)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / c.builds; per >= c.budget {
			t.Errorf("%s: NewMachine allocates %d B per machine, want < %d", c.name, per, c.budget)
		}
	}
}
