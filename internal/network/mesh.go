package network

// 2-D mesh topology support. The paper's machine description leaves the
// interconnection network "intentionally unspecified" (§4); its evaluation
// uses the Ω network (§5.2). The mesh lets the scalability results be
// re-checked on a second, lower-bisection topology: nodes sit on a
// rows x cols grid (dimensions the closest powers of two), packets route
// dimension-ordered (X then Y), and every directed link is a contended
// resource, as the Ω switch ports are.

import (
	"fmt"

	"ssmp/internal/sim"
)

// Topology selects the interconnect.
type Topology uint8

const (
	// TopOmega is the paper's multistage Ω network (default).
	TopOmega Topology = iota
	// TopMesh is a 2-D mesh with dimension-ordered routing.
	TopMesh
	// TopBus is a single shared bus: every message serializes on one
	// resource. The paper's §1 motivation — "a bus is not a scalable
	// interconnection network" — made runnable.
	TopBus
)

// String names the topology.
func (t Topology) String() string {
	switch t {
	case TopOmega:
		return "omega"
	case TopMesh:
		return "mesh"
	case TopBus:
		return "bus"
	}
	return "topology?"
}

// ParseTopology returns the topology String names: "omega", "mesh" or
// "bus".
func ParseTopology(s string) (Topology, error) {
	for t := TopOmega; t <= TopBus; t++ {
		if t.String() == s {
			return t, nil
		}
	}
	return TopOmega, fmt.Errorf("unknown topology %q (want omega, mesh or bus)", s)
}

// mesh holds the mesh-specific state.
type mesh struct {
	rows, cols int
	// links[node][dir] is the directed link leaving node in direction
	// dir: 0 east (+x), 1 west (-x), 2 south (+y), 3 north (-y).
	links [][4]sim.Resource
}

func newMesh(nodes int) *mesh {
	// Split the log2 as evenly as possible: 16 -> 4x4, 32 -> 8x4.
	logN := 0
	for 1<<uint(logN) < nodes {
		logN++
	}
	rows := 1 << uint(logN/2)
	cols := nodes / rows
	return &mesh{rows: rows, cols: cols, links: make([][4]sim.Resource, nodes)}
}

func (m *mesh) coords(node int) (x, y int) { return node % m.cols, node / m.cols }

func (m *mesh) nodeAt(x, y int) int { return y*m.cols + x }

// hops returns the Manhattan distance between two nodes.
func (m *mesh) hops(src, dst int) int {
	sx, sy := m.coords(src)
	dx, dy := m.coords(dst)
	return abs(sx-dx) + abs(sy-dy)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// traverse walks the XY route acquiring each directed link; it returns the
// delivery completion time.
func (m *mesh) traverse(src, dst int, now, hold sim.Time) sim.Time {
	t := now
	x, y := m.coords(src)
	dx, dy := m.coords(dst)
	for x != dx {
		dir, nx := 0, x+1
		if dx < x {
			dir, nx = 1, x-1
		}
		t = m.links[m.nodeAt(x, y)][dir].Acquire(t, hold)
		x = nx
	}
	for y != dy {
		dir, ny := 2, y+1
		if dy < y {
			dir, ny = 3, y-1
		}
		t = m.links[m.nodeAt(x, y)][dir].Acquire(t, hold)
		y = ny
	}
	return t
}

// busy sums link occupancy for utilization reporting.
func (m *mesh) busy() (total sim.Time, count int) {
	for i := range m.links {
		for d := 0; d < 4; d++ {
			total += m.links[i][d].Busy
			count++
		}
	}
	return total, count
}
