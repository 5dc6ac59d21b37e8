package network

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"ssmp/internal/sim"
)

// Lane-mode arbitration tests: a contended network built with NewParallel
// must resolve switch-port contention at the window barrier with exactly
// the serial engine's acquire-order discipline. For open-loop traffic —
// where every injection (src, dst, words, time) is fixed up front — the
// arbiter's key-ordered replay is the serial execution, so delivery times
// and the full Stats snapshot must match the serial network bit for bit,
// at any worker count.

// arbTrace runs a fixed open-loop injection schedule and returns the
// per-destination delivery-time trace plus the final stats. The trace has
// one slice per node, so under lanes each node's lane appends only to its
// own element.
type arbShot struct {
	at       sim.Time
	src, dst int
	words    int
}

func arbSchedule(nodes int) []arbShot {
	var shots []arbShot
	for i := 0; i < nodes; i++ {
		// Hot-spot traffic into node 0 plus neighbor traffic: plenty of
		// shared ports/links on both topologies.
		if i != 0 {
			shots = append(shots, arbShot{at: 0, src: i, dst: 0, words: 0})
		}
		shots = append(shots, arbShot{at: 2, src: i, dst: (i + 1) % nodes, words: 4})
		shots = append(shots, arbShot{at: 5, src: i, dst: (i + nodes/2) % nodes, words: 1})
	}
	return shots
}

func arbTraceSerial(t *testing.T, cfg Config) ([][]sim.Time, Stats) {
	t.Helper()
	e := sim.NewEngine()
	n := New(e, cfg)
	trace := make([][]sim.Time, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		i := i
		n.Attach(i, func(any) { trace[i] = append(trace[i], e.Now()) })
	}
	for _, s := range arbSchedule(cfg.Nodes) {
		s := s
		e.At(s.at, func() { n.Send(s.src, s.dst, s.words, nil) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return trace, n.Stats()
}

func arbTraceLanes(t *testing.T, cfg Config, workers int) ([][]sim.Time, Stats) {
	t.Helper()
	par := sim.NewParallel(cfg.Nodes)
	n := NewParallel(par, cfg)
	trace := make([][]sim.Time, cfg.Nodes)
	eng := make([]*sim.Engine, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		i := i
		eng[i] = par.Lane(i)
		n.Attach(i, func(any) { trace[i] = append(trace[i], eng[i].Now()) })
	}
	for _, s := range arbSchedule(cfg.Nodes) {
		s := s
		par.Lane(s.src).At(s.at, func() { n.Send(s.src, s.dst, s.words, nil) })
	}
	if err := par.Run(workers); err != nil {
		t.Fatal(err)
	}
	return trace, n.Stats()
}

func TestLaneArbitrationMatchesSerial(t *testing.T) {
	for _, top := range []Topology{TopOmega, TopMesh, TopBus} {
		t.Run(top.String(), func(t *testing.T) {
			cfg := DefaultConfig(8)
			cfg.Topology = top
			wantTrace, wantStats := arbTraceSerial(t, cfg)
			if wantStats.QueueSum == 0 {
				t.Fatal("schedule produced no contention; the test proves nothing")
			}
			for _, w := range []int{1, 2, 8} {
				gotTrace, gotStats := arbTraceLanes(t, cfg, w)
				if fmt.Sprint(gotStats) != fmt.Sprint(wantStats) {
					t.Fatalf("workers=%d stats diverge:\n got %+v\nwant %+v", w, gotStats, wantStats)
				}
				if fmt.Sprint(gotTrace) != fmt.Sprint(wantTrace) {
					t.Fatalf("workers=%d delivery trace diverges:\n got %v\nwant %v", w, gotTrace, wantTrace)
				}
			}
		})
	}
}

// TestLaneArbitrationSerializesSharedPort is the lane-mode twin of
// TestContentionSerializesSharedPort: two same-cycle messages from
// different lanes into one destination share the final-stage output port
// and must serialize, with the queueing charged to QueueSum.
func TestLaneArbitrationSerializesSharedPort(t *testing.T) {
	cfg := DefaultConfig(8)
	par := sim.NewParallel(8)
	n := NewParallel(par, cfg)
	var times []sim.Time
	dstEng := par.Lane(7)
	n.Attach(7, func(any) { times = append(times, dstEng.Now()) })
	for i := 0; i < 7; i++ {
		n.Attach(i, func(any) {})
	}
	par.Lane(0).At(0, func() { n.Send(0, 7, 0, nil) })
	par.Lane(1).At(0, func() { n.Send(1, 7, 0, nil) })
	if err := par.Run(2); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(times))
	}
	if times[0] == times[1] {
		t.Fatalf("contending messages delivered simultaneously at %d", times[0])
	}
	if n.Stats().QueueSum == 0 {
		t.Fatal("expected nonzero queueing delay under contention")
	}
}

// TestLaneArbitrationFaultParity: with the fault plane on, verdicts are
// drawn at Send time from the per-link streams — the same per-link order
// the serial engine draws them in — so fault counters and the delivered
// message set must match the serial run exactly.
func TestLaneArbitrationFaultParity(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Faults = FaultConfig{Seed: 77, Rates: FaultRates{Drop: 0.2, Dup: 0.2, Delay: 0.3}}
	wantTrace, wantStats := arbTraceSerial(t, cfg)
	wantFaults := wantStats.Faults
	if wantFaults.Dropped+wantFaults.Duplicated+wantFaults.Delayed == 0 {
		t.Fatal("fault plane inert; the test proves nothing")
	}
	for _, w := range []int{1, 4} {
		gotTrace, gotStats := arbTraceLanes(t, cfg, w)
		if fmt.Sprint(gotStats) != fmt.Sprint(wantStats) {
			t.Fatalf("workers=%d stats diverge:\n got %+v\nwant %+v", w, gotStats, wantStats)
		}
		if fmt.Sprint(gotTrace) != fmt.Sprint(wantTrace) {
			t.Fatalf("workers=%d delivery trace diverges:\n got %v\nwant %v", w, gotTrace, wantTrace)
		}
	}
}

// TestArbitrateReplaysInKeyOrder: the window-barrier arbiter replays the
// sends the lanes recorded in one window in injection-key order (time,
// jitter, source lane, source sequence), with jitter off and on. Every
// source sends one to three messages in each cycle of the window, so the
// replay must interleave the sources cycle by cycle and, under jitter,
// reorder each cycle's sends by their jitter draws.
func TestArbitrateReplaysInKeyOrder(t *testing.T) {
	type key struct {
		at       sim.Time
		jit, seq uint64
		src      int32
	}
	byKey := func(a, b key) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		if c := cmp.Compare(a.jit, b.jit); c != 0 {
			return c
		}
		if c := cmp.Compare(a.src, b.src); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	}
	for _, jitter := range []uint64{0, 11} {
		cfg := DefaultConfig(8)
		par := sim.NewParallel(cfg.Nodes)
		par.SetJitter(jitter)
		n := NewParallel(par, cfg)
		var windows [][]key
		par.SetArbiter(func() {
			var got []key
			for _, q := range n.replayOrder() {
				got = append(got, key{q.at, q.jit, q.seq, q.src})
			}
			windows = append(windows, got)
			n.arbitrate()
		})
		sends := 0
		for src := 0; src < cfg.Nodes; src++ {
			n.Attach(src, func(any) {})
			for at := sim.Time(0); at < n.MinCrossLatency(); at++ {
				for k := 0; k <= (src+int(at))%3; k++ {
					dst := (src + 1 + k) % cfg.Nodes
					par.Lane(src).At(at, func() { n.Send(src, dst, k, nil) })
					sends++
				}
			}
		}
		if err := par.Run(2); err != nil {
			t.Fatal(err)
		}
		got := windows[0]
		if len(got) != sends {
			t.Fatalf("jitter=%d: the first window replayed %d sends, want %d", jitter, len(got), sends)
		}
		want := slices.Clone(got)
		slices.SortFunc(want, byKey)
		if !slices.Equal(got, want) {
			t.Fatalf("jitter=%d: replay order\n got %v\nwant %v", jitter, got, want)
		}
		// Under jitter the key order is not (time, source, sequence) order,
		// so the replay above had to reorder within cycles.
		bySource := slices.Clone(got)
		slices.SortFunc(bySource, func(a, b key) int {
			a.jit, b.jit = 0, 0
			return byKey(a, b)
		})
		if reordered := !slices.Equal(got, bySource); reordered != (jitter != 0) {
			t.Fatalf("jitter=%d: replay reordered a cycle's sends by jitter: %v", jitter, reordered)
		}
	}
}
