// Package barrier implements the hardware barrier of the paper's cost model
// (§5.1, Table 3): each participant sends a single arrival transaction to
// the barrier's home memory module (2 messages and 2(t_nw + t_m) per
// participant), and the arrival that completes the episode triggers release
// notifications to every participant, serialized through the home directory
// ((n-1) t_D of the barrier-notify row).
//
// A barrier is named by a memory address; its home is the address's home
// module. Episodes carry an expected participant count supplied by the
// arriving processors, which must agree within an episode.
package barrier

import (
	"fmt"

	"ssmp/internal/fabric"
	"ssmp/internal/mem"
	"ssmp/internal/msg"
)

// episode is one in-progress barrier instance at its home.
type episode struct {
	expect  int
	arrived []int
}

// Home is the memory-side barrier controller for barriers homed at one
// node.
type Home struct {
	f       *fabric.Fabric
	id      int
	geom    mem.Geometry
	station fabric.Station
	eps     map[mem.Addr]*episode // nil until the first arrival

	// Episodes counts completed barrier episodes.
	Episodes uint64
}

// NewHome builds the home-side barrier controller.
func NewHome(f *fabric.Fabric, id int, geom mem.Geometry) *Home {
	h := &Home{f: f, id: id, geom: geom, station: fabric.NewStation(f)}
	h.Reset()
	return h
}

// Reset returns the home to the state NewHome builds: no episode open, the
// station idle and none counted.
func (h *Home) Reset() {
	h.station.Reset()
	clear(h.eps)
	h.Episodes = 0
}

// Handles reports whether the home consumes this message kind.
func (h *Home) Handles(k msg.Kind) bool { return k == msg.BarrierArrive }

// Handle processes an arrival after the directory check plus the memory
// update (the barrier counter lives in memory).
func (h *Home) Handle(m *msg.Msg) { h.station.ProcessAfter(h.f.Time.TMem, h, m) }

// OnDeliver implements sim.Receiver: an arrival has passed the station.
func (h *Home) OnDeliver(p any) { h.process(p.(*msg.Msg)) }

func (h *Home) process(m *msg.Msg) {
	if m.Kind != msg.BarrierArrive {
		panic(fmt.Sprintf("barrier: home %d cannot handle %v", h.id, m.Kind))
	}
	a := mem.Addr(m.Aux)
	if h.geom.Home(h.geom.BlockOf(a)) != h.id {
		panic(fmt.Sprintf("barrier: address %d handled by wrong home %d", a, h.id))
	}
	ep, ok := h.eps[a]
	if !ok {
		ep = &episode{expect: m.Acks}
		if h.eps == nil {
			h.eps = make(map[mem.Addr]*episode)
		}
		h.eps[a] = ep
	}
	if ep.expect != m.Acks {
		panic(fmt.Sprintf("barrier: participant counts disagree at %d: %d vs %d", a, ep.expect, m.Acks))
	}
	for _, n := range ep.arrived {
		if n == m.Src {
			panic(fmt.Sprintf("barrier: node %d arrived twice at %d", m.Src, a))
		}
	}
	ep.arrived = append(ep.arrived, m.Src)
	if len(ep.arrived) < ep.expect {
		return
	}
	// Episode complete: release everyone, one directory check each.
	delete(h.eps, a)
	h.Episodes++
	for _, n := range ep.arrived {
		h.station.Send(msg.Msg{Kind: msg.BarrierRelease, Src: h.id, Dst: n, Aux: uint64(a)})
	}
}

// Unit is the node-side barrier controller.
type Unit struct {
	f       *fabric.Fabric
	id      int
	geom    mem.Geometry
	waiting map[mem.Addr]func() // nil until the first arrival
}

// NewUnit builds the node-side barrier controller.
func NewUnit(f *fabric.Fabric, id int, geom mem.Geometry) *Unit {
	u := &Unit{f: f, id: id, geom: geom}
	u.Reset()
	return u
}

// Reset returns the unit to the state NewUnit builds: no arrival waiting.
func (u *Unit) Reset() { clear(u.waiting) }

// Arrive announces arrival at the barrier named by address a with the given
// participant count; done runs when the release arrives.
func (u *Unit) Arrive(a mem.Addr, participants int, done func()) {
	if participants < 1 {
		panic(fmt.Sprintf("barrier: participants = %d", participants))
	}
	if _, dup := u.waiting[a]; dup {
		panic(fmt.Sprintf("barrier: node %d already waiting at %d", u.id, a))
	}
	if u.waiting == nil {
		u.waiting = make(map[mem.Addr]func())
	}
	u.waiting[a] = done
	u.f.RMR.RemoteRef(u.id)
	u.f.Send(msg.Msg{
		Kind: msg.BarrierArrive, Src: u.id, Dst: u.geom.Home(u.geom.BlockOf(a)),
		Aux: uint64(a), Acks: participants,
	})
}

// Handles reports whether the unit consumes this message kind.
func (u *Unit) Handles(k msg.Kind) bool { return k == msg.BarrierRelease }

// Handle processes a release.
func (u *Unit) Handle(m *msg.Msg) {
	if m.Kind != msg.BarrierRelease {
		panic(fmt.Sprintf("barrier: node %d cannot handle %v", u.id, m.Kind))
	}
	a := mem.Addr(m.Aux)
	done := u.waiting[a]
	if done == nil {
		panic(fmt.Sprintf("barrier: node %d released from %d without waiting", u.id, a))
	}
	delete(u.waiting, a)
	done()
}
