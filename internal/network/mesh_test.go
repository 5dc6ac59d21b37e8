package network

import (
	"testing"
	"testing/quick"

	"ssmp/internal/sim"
)

func meshRig(t testing.TB, nodes int) (*sim.Engine, *Network) {
	t.Helper()
	e := sim.NewEngine()
	cfg := DefaultConfig(nodes)
	cfg.Topology = TopMesh
	n := New(e, cfg)
	return e, n
}

func TestMeshDimensions(t *testing.T) {
	cases := map[int][2]int{
		4:  {2, 2},
		8:  {2, 4}, // rows x cols
		16: {4, 4},
		64: {8, 8},
	}
	for nodes, want := range cases {
		m := newMesh(nodes)
		if m.rows != want[0] || m.cols != want[1] {
			t.Errorf("mesh(%d) = %dx%d, want %dx%d", nodes, m.rows, m.cols, want[0], want[1])
		}
	}
}

func TestMeshCoordsRoundTrip(t *testing.T) {
	m := newMesh(16)
	for n := 0; n < 16; n++ {
		x, y := m.coords(n)
		if m.nodeAt(x, y) != n {
			t.Fatalf("coords round trip failed for %d", n)
		}
	}
}

func TestMeshHops(t *testing.T) {
	m := newMesh(16) // 4x4
	cases := []struct{ src, dst, want int }{
		{0, 1, 1},
		{0, 4, 1},  // next row
		{0, 5, 2},  // diagonal
		{0, 15, 6}, // opposite corner: 3+3
		{5, 5, 0},
	}
	for _, c := range cases {
		if got := m.hops(c.src, c.dst); got != c.want {
			t.Errorf("hops(%d,%d) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestMeshDeliveryLatencyMatchesDistance(t *testing.T) {
	e, n := meshRig(t, 16)
	var at sim.Time
	for i := 0; i < 16; i++ {
		i := i
		if i == 15 {
			n.Attach(i, func(any) { at = e.Now() })
		} else {
			n.Attach(i, func(any) {})
		}
	}
	n.Send(0, 15, 0, nil) // corner to corner: 6 hops, unit delay
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 6 {
		t.Fatalf("corner-to-corner latency = %d, want 6", at)
	}
}

func TestMeshContentionOnSharedLink(t *testing.T) {
	// Messages 0->3 and 1->3 share the link 2->3 on a 2x2... use 4 nodes
	// (2x2): 0->1 and 2->... XY routing: 0->3 goes east (0->1) then south
	// (1->3); 1->3 goes south (1->3). They share the 1->3 link.
	e, n := meshRig(t, 4)
	var times []sim.Time
	n.Attach(3, func(any) { times = append(times, e.Now()) })
	for i := 0; i < 3; i++ {
		n.Attach(i, func(any) {})
	}
	n.Send(0, 3, 0, nil)
	n.Send(1, 3, 0, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] == times[1] {
		t.Fatalf("shared-link messages delivered at %v, want serialized", times)
	}
	if n.Stats().QueueSum == 0 {
		t.Fatal("no queueing recorded on shared link")
	}
}

// TestMeshIdealIgnoresContention is the mesh twin of
// TestIdealNetworkIgnoresContention: with Ideal set, simultaneous messages
// over the same link all arrive at the uncontended Manhattan latency and no
// queueing is recorded.
func TestMeshIdealIgnoresContention(t *testing.T) {
	e := sim.NewEngine()
	cfg := DefaultConfig(16)
	cfg.Topology = TopMesh
	cfg.Ideal = true
	n := New(e, cfg)
	var times []sim.Time
	n.Attach(3, func(any) { times = append(times, e.Now()) })
	for i := 0; i < 16; i++ {
		if i != 3 {
			n.Attach(i, func(any) {})
		}
	}
	for src := 0; src < 3; src++ {
		n.Send(src, 3, 0, nil) // all route east along row 0 into node 3
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	m := newMesh(16)
	for src := 0; src < 3; src++ {
		found := false
		for _, at := range times {
			if at == sim.Time(m.hops(src, 3)) {
				found = true
			}
		}
		if !found {
			t.Fatalf("no delivery at node %d's uncontended latency %d (times %v)", src, m.hops(src, 3), times)
		}
	}
	if n.Stats().QueueSum != 0 {
		t.Fatal("ideal mesh recorded queueing")
	}
}

// TestMeshContentionStats is the mesh twin of TestStatsAccounting plus the
// queueing assertion: hops follow Manhattan distance and a saturated link
// shows up in QueueSum / MeanQueueing.
func TestMeshContentionStats(t *testing.T) {
	e, n := meshRig(t, 16)
	for i := 0; i < 16; i++ {
		n.Attach(i, func(any) {})
	}
	n.Send(0, 5, 4, nil) // 2 hops
	n.Send(1, 1, 2, nil) // local bypass
	for src := 0; src < 4; src++ {
		n.Send(src, 15, 0, nil) // hot spot: shared column links
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	if st.Messages != 5 || st.Local != 1 || st.Words != 4 {
		t.Fatalf("stats = %+v, want Messages=5 Local=1 Words=4", st)
	}
	m := newMesh(16)
	wantHops := uint64(m.hops(0, 5))
	for src := 0; src < 4; src++ {
		wantHops += uint64(m.hops(src, 15))
	}
	if st.Hops != wantHops {
		t.Fatalf("Hops = %d, want %d", st.Hops, wantHops)
	}
	if st.QueueSum == 0 || st.MeanQueueing() <= 0 {
		t.Fatalf("hot-spot traffic recorded no queueing: %+v", st)
	}
	if st.MeanLatency() <= st.MeanQueueing() {
		t.Fatalf("latency accounting inconsistent: %+v", st)
	}
}

// Property: on the contended mesh every message is still delivered exactly
// once, never earlier than its Manhattan-distance uncontended latency.
func TestQuickMeshContendedDelivery(t *testing.T) {
	f := func(pairs []uint16) bool {
		e := sim.NewEngine()
		cfg := DefaultConfig(16)
		cfg.Topology = TopMesh
		n := New(e, cfg)
		m := newMesh(16)
		floor := map[int]sim.Time{}
		got := map[int]sim.Time{}
		id := 0
		for i := 0; i < 16; i++ {
			n.Attach(i, func(p any) { got[p.(int)] = e.Now() })
		}
		for _, pr := range pairs {
			src := int(pr) & 15
			dst := int(pr>>4) & 15
			if src == dst {
				continue
			}
			n.Send(src, dst, 0, id)
			floor[id] = e.Now() + sim.Time(m.hops(src, dst))
			id++
		}
		if err := e.Run(); err != nil {
			return false
		}
		if len(got) != id {
			return false
		}
		for k, at := range got {
			if at < floor[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: every message is delivered and the uncontended latency equals
// the Manhattan distance times the hold.
func TestQuickMeshDelivery(t *testing.T) {
	f := func(pairs []uint16) bool {
		e := sim.NewEngine()
		cfg := DefaultConfig(16)
		cfg.Topology = TopMesh
		cfg.Ideal = true // isolate the distance model
		n := New(e, cfg)
		m := newMesh(16)
		want := map[int]sim.Time{}
		got := map[int]sim.Time{}
		id := 0
		for i := 0; i < 16; i++ {
			i := i
			_ = i
			n.Attach(i, func(p any) { got[p.(int)] = e.Now() })
		}
		for _, pr := range pairs {
			src := int(pr) & 15
			dst := int(pr>>4) & 15
			if src == dst {
				continue
			}
			n.Send(src, dst, 0, id)
			want[id] = e.Now() + sim.Time(m.hops(src, dst))
			id++
		}
		if err := e.Run(); err != nil {
			return false
		}
		if len(got) != id {
			return false
		}
		for k, at := range got {
			if at != want[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeshUnderFullMachine(t *testing.T) {
	// Smoke: the whole protocol stack works over the mesh.
	e, n := meshRig(t, 8)
	_ = e
	if n.UncontendedLatency(0) == 0 {
		t.Fatal("mesh uncontended latency zero")
	}
	if TopMesh.String() != "mesh" || TopOmega.String() != "omega" || Topology(9).String() != "topology?" {
		t.Fatal("topology names wrong")
	}
}

func TestBusSerializesEverything(t *testing.T) {
	e := sim.NewEngine()
	cfg := DefaultConfig(8)
	cfg.Topology = TopBus
	n := New(e, cfg)
	var times []sim.Time
	for i := 0; i < 8; i++ {
		i := i
		n.Attach(i, func(any) { times = append(times, e.Now()) })
		_ = i
	}
	// Four disjoint pairs: on the Ω network these are conflict-free, on
	// the bus they serialize.
	n.Send(0, 1, 0, nil)
	n.Send(2, 3, 0, nil)
	n.Send(4, 5, 0, nil)
	n.Send(6, 7, 0, nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 4 {
		t.Fatalf("delivered %d", len(times))
	}
	want := []sim.Time{1, 2, 3, 4}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("bus delivery times %v, want %v", times, want)
		}
	}
}

func TestBusSaturatesVersusOmega(t *testing.T) {
	run := func(top Topology) sim.Time {
		e := sim.NewEngine()
		cfg := DefaultConfig(16)
		cfg.Topology = top
		n := New(e, cfg)
		var last sim.Time
		for i := 0; i < 16; i++ {
			n.Attach(i, func(any) { last = e.Now() })
		}
		// All-to-one-neighbour traffic: every node sends 8 blocks.
		for i := 0; i < 16; i++ {
			for k := 0; k < 8; k++ {
				n.Send(i, (i+1)%16, 4, nil)
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	bus, omega := run(TopBus), run(TopOmega)
	if bus <= omega*2 {
		t.Fatalf("bus (%d cycles) did not saturate vs omega (%d): the paper's premise", bus, omega)
	}
}

func TestBusTopologyName(t *testing.T) {
	if TopBus.String() != "bus" {
		t.Fatal("bus name wrong")
	}
}

// TestParseTopology pins that ParseTopology inverts String and refuses any
// other spelling.
func TestParseTopology(t *testing.T) {
	for _, top := range []Topology{TopOmega, TopMesh, TopBus} {
		if got, err := ParseTopology(top.String()); err != nil || got != top {
			t.Errorf("ParseTopology(%q) = %v, %v", top.String(), got, err)
		}
	}
	for _, bad := range []string{"", "Omega", "ring", "topology?", "bus "} {
		if _, err := ParseTopology(bad); err == nil {
			t.Errorf("ParseTopology(%q) accepted", bad)
		}
	}
}
