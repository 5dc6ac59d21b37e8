package fabric

import (
	"slices"
	"testing"

	"ssmp/internal/mem"
	"ssmp/internal/msg"
	"ssmp/internal/network"
	"ssmp/internal/sim"
)

// mkTransport builds a fabric with the reliable transport over a (possibly
// faulty) network and attaches a recording handler to every node. A
// handler borrows each message for its call, so the recorder keeps copies,
// each with its own copy of the payload.
func mkTransport(tb testing.TB, nodes int, faults network.FaultConfig) (*sim.Engine, *Fabric, [][]msg.Msg) {
	tb.Helper()
	eng := sim.NewEngine()
	cfg := network.DefaultConfig(nodes)
	cfg.Faults = faults
	nw := network.New(eng, cfg)
	f := New(eng, nw, DefaultTiming())
	f.EnableTransport()
	got := make([][]msg.Msg, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		f.Attach(i, func(m *msg.Msg) {
			c := *m
			c.Data = slices.Clone(m.Data)
			got[i] = append(got[i], c)
		})
	}
	return eng, f, got
}

// checkFIFO asserts node dst received exactly blocks 0..count-1 from src, in
// order (senders stamp the send index into Block).
func checkFIFO(t *testing.T, got []msg.Msg, src, count int) {
	t.Helper()
	n := 0
	for _, m := range got {
		if m.Src != src {
			continue
		}
		if int(m.Block) != n {
			t.Fatalf("from node %d: message %d has block %d — lost, duplicated or reordered", src, n, m.Block)
		}
		n++
	}
	if n != count {
		t.Fatalf("from node %d: delivered %d messages, want %d", src, n, count)
	}
}

func TestTransportPassthroughNoFaults(t *testing.T) {
	eng, f, got := mkTransport(t, 4, network.FaultConfig{})
	const count = 20
	for i := 0; i < count; i++ {
		f.Send(msg.Msg{Kind: msg.LockReq, Src: 0, Dst: 2, Block: mem.Block(i)})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	checkFIFO(t, got[2], 0, count)
	retries, dup, reord, acks := f.TransportStats()
	if retries != 0 || dup != 0 || reord != 0 {
		t.Fatalf("recovery counters nonzero on a clean network: %d/%d/%d", retries, dup, reord)
	}
	if acks != count {
		t.Fatalf("acksSent = %d, want %d", acks, count)
	}
}

func TestTransportSurvivesDrops(t *testing.T) {
	faults := network.FaultConfig{Seed: 3, Rates: network.FaultRates{Drop: 0.3}}
	eng, f, got := mkTransport(t, 4, faults)
	const count = 60
	for i := 0; i < count; i++ {
		f.Send(msg.Msg{Kind: msg.LockReq, Src: 0, Dst: 2, Block: mem.Block(i)})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	checkFIFO(t, got[2], 0, count)
	fc := f.FaultCounters()
	if fc.Dropped == 0 {
		t.Fatal("fault plane dropped nothing at rate 0.3")
	}
	if fc.Retries == 0 {
		t.Fatal("drops recovered without any retransmission")
	}
}

func TestTransportSuppressesDuplicates(t *testing.T) {
	faults := network.FaultConfig{Seed: 3, Rates: network.FaultRates{Dup: 0.4}}
	eng, f, got := mkTransport(t, 4, faults)
	const count = 60
	for i := 0; i < count; i++ {
		f.Send(msg.Msg{Kind: msg.LockReq, Src: 0, Dst: 2, Block: mem.Block(i)})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	checkFIFO(t, got[2], 0, count)
	fc := f.FaultCounters()
	if fc.Duplicated == 0 {
		t.Fatal("fault plane duplicated nothing at rate 0.4")
	}
	if fc.DupSuppressed == 0 {
		t.Fatal("duplicates reached the protocol layer unsuppressed")
	}
}

func TestTransportRestoresFIFOUnderDelay(t *testing.T) {
	// Large random delays make later messages overtake earlier ones; the
	// holdback buffer must restore injection order.
	faults := network.FaultConfig{Seed: 9, Rates: network.FaultRates{Delay: 0.5}, DelayMax: 64}
	eng, f, got := mkTransport(t, 4, faults)
	const count = 60
	for i := 0; i < count; i++ {
		f.Send(msg.Msg{Kind: msg.LockReq, Src: 0, Dst: 2, Block: mem.Block(i)})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	checkFIFO(t, got[2], 0, count)
	fc := f.FaultCounters()
	if fc.Delayed == 0 {
		t.Fatal("fault plane delayed nothing at rate 0.5")
	}
	if fc.Reordered == 0 {
		t.Fatal("expected at least one held-back (reordered) message under 64-cycle delays")
	}
}

func TestTransportFullChaosAllLinks(t *testing.T) {
	faults := network.FaultConfig{
		Seed:     17,
		Rates:    network.FaultRates{Drop: 0.15, Dup: 0.15, Delay: 0.25},
		DelayMax: 48,
	}
	eng, f, got := mkTransport(t, 4, faults)
	const count = 40
	// Bidirectional traffic on several links, including the ack paths.
	for i := 0; i < count; i++ {
		f.Send(msg.Msg{Kind: msg.LockReq, Src: 0, Dst: 2, Block: mem.Block(i)})
		f.Send(msg.Msg{Kind: msg.LockGrant, Src: 2, Dst: 0, Block: mem.Block(i)})
		f.Send(msg.Msg{Kind: msg.UpdateProp, Src: 1, Dst: 3, Block: mem.Block(i),
			Data: []mem.Word{mem.Word(i)}})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	checkFIFO(t, got[2], 0, count)
	checkFIFO(t, got[0], 2, count)
	checkFIFO(t, got[3], 1, count)
	// Payloads must survive retransmission cloning intact.
	for _, m := range got[3] {
		if len(m.Data) != 1 || m.Data[0] != mem.Word(m.Block) {
			t.Fatalf("payload corrupted: block %d data %v", m.Block, m.Data)
		}
	}
	fc := f.FaultCounters()
	if !fc.Any() {
		t.Fatal("no fault activity recorded under full chaos")
	}
	if fc.Dropped == 0 || fc.Retries == 0 {
		t.Fatalf("chaos run did not exercise the retry path: %+v", fc)
	}
	// Drained clean: every message was acked, every slot freed, every
	// retransmit timer cancelled. An ack path that leaks a slot fails here.
	xp := f.xp
	for i, l := range xp.tx {
		if len(l.win) != 0 {
			t.Fatalf("link %d->%d: %d sequences still unacked after drain", i/4, i%4, len(l.win))
		}
	}
	free := 0
	for i := xp.free; i != 0 && free <= len(xp.slots); i = xp.slots[i-1].next {
		free++
	}
	if free != len(xp.slots) {
		t.Fatalf("%d of %d slots on the free list after drain", free, len(xp.slots))
	}
	if eng.Pending() != 0 {
		t.Fatalf("engine left %d pending events after drain", eng.Pending())
	}
}

func TestTransportLocalBypassUntracked(t *testing.T) {
	faults := network.FaultConfig{Seed: 5, Rates: network.FaultRates{Drop: 0.9}}
	eng, f, got := mkTransport(t, 4, faults)
	const count = 25
	for i := 0; i < count; i++ {
		f.Send(msg.Msg{Kind: msg.LockReq, Src: 1, Dst: 1, Block: mem.Block(i)})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	checkFIFO(t, got[1], 1, count)
	for _, m := range got[1] {
		if m.XSeq != 0 {
			t.Fatalf("local bypass message got sequence %d, want untracked", m.XSeq)
		}
	}
	if _, _, _, acks := f.TransportStats(); acks != 0 {
		t.Fatalf("local bypass generated %d acks", acks)
	}
}

// TestTransportBackoffIsBounded: under a persistently lossy link, with the
// timeouts shortened to 8 cycles capped at 32, the retransmit interval
// grows to the cap and stays there, the message gets through exactly once,
// and the retransmit timers all drain.
func TestTransportBackoffIsBounded(t *testing.T) {
	faults := network.FaultConfig{Seed: 21, Rates: network.FaultRates{Drop: 0.8}}
	eng, f, got := mkTransport(t, 4, faults)
	f.xp.rto, f.xp.rtoMax = 8, 32
	f.Send(msg.Msg{Kind: msg.LockReq, Src: 0, Dst: 2})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got[2]) != 1 {
		t.Fatalf("delivered %d copies, want 1", len(got[2]))
	}
	retries, _, _, _ := f.TransportStats()
	if retries < 4 {
		t.Fatalf("drop=0.8 link delivered after %d retries, want the backoff to reach its cap", retries)
	}
	// Retries come at most 32 cycles apart, so the run ends within 32
	// cycles per retry plus one more for the last delivery and its ack;
	// doubling without a cap would take about 8 << retries.
	if limit := sim.Time(retries+1) * 32; eng.Now() > limit {
		t.Fatalf("the run ended at cycle %d after %d retries, past %d", eng.Now(), retries, limit)
	}
	// With the message eventually acked the queue drains; the engine must
	// not be left with orphan timers extending the run.
	if eng.Pending() != 0 {
		t.Fatalf("engine left %d pending events after drain", eng.Pending())
	}
}

// chaosRound is one round of BenchmarkTransportChaos's injection: every
// node sends one tracked message to the node 1 + r mod (nodes-1) places
// on, so that successive rounds cover every link.
type chaosRound struct {
	f     *Fabric
	nodes int
}

func (c *chaosRound) OnStep(r uint64) {
	for src := 0; src < c.nodes; src++ {
		dst := (src + 1 + int(r)%(c.nodes-1)) % c.nodes
		c.f.Send(msg.Msg{Kind: msg.LockReq, Src: src, Dst: dst, Block: mem.Block(int(r)*c.nodes + src)})
	}
}

// BenchmarkTransportChaos is the reliable transport's layer benchmark:
// 1,024 tracked messages spread over every link of a 16-node fabric at the
// chaos soak's fault rates (litmus.DefaultChaosRates, written out here
// because fabric cannot import litmus), run until every one is delivered
// and acked. Each node sends one message every 4 cycles, a load at which
// retransmissions answer faults rather than queueing. The fabric is built
// outside the timer.
func BenchmarkTransportChaos(b *testing.B) {
	const nodes, count, gap = 16, 1024, 4
	faults := network.FaultConfig{Seed: 3, Rates: network.FaultRates{Drop: 0.03, Dup: 0.03, Delay: 0.1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng, f, got := mkTransport(b, nodes, faults)
		b.StartTimer()
		rounds := &chaosRound{f: f, nodes: nodes}
		for r := 0; r < count/nodes; r++ {
			eng.AtStep(sim.Time(r*gap), rounds, uint64(r))
		}
		if err := eng.Run(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		n := 0
		for _, g := range got {
			n += len(g)
		}
		if n != count {
			b.Fatalf("delivered %d messages, want %d", n, count)
		}
		b.StartTimer()
	}
}
