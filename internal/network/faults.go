package network

// The fault plane: seeded, deterministic message-level fault injection for
// chaos testing. The paper leaves the interconnect "intentionally
// unspecified" (§4); the coherence machinery above it silently assumes
// every message arrives exactly once and, per source/destination pair, in
// order. The fault plane breaks those assumptions on purpose — dropping,
// duplicating, and delaying messages — so that the protocol-level recovery
// machinery (internal/fabric's reliable transport) can be exercised and the
// litmus chaos soak can assert that buffered consistency survives an
// adversarial fabric, not just an adversarial scheduler.
//
// Determinism: every fault decision is a pure function of (Seed, src, dst,
// per-link message index). Each ordered link keeps its own splitmix64
// stream, so the faults a link injects depend only on that link's own
// traffic order — which is itself deterministic — never on unrelated
// traffic elsewhere in the machine. Seed 0 disables the plane entirely and
// leaves the no-fault code path untouched, keeping golden digests
// bit-identical.

import (
	"fmt"
	"slices"

	"ssmp/internal/sim"
)

// FaultRates are per-message fault probabilities on one link.
type FaultRates struct {
	// Drop is the probability a message is silently discarded.
	Drop float64 `json:"drop"`
	// Dup is the probability a message is delivered twice (the second
	// copy trails by a deterministic extra delay).
	Dup float64 `json:"dup"`
	// Delay is the probability a message's delivery is postponed by a
	// deterministic extra delay in [1, DelayMax].
	Delay float64 `json:"delay"`
}

// zero reports whether every rate is zero.
func (r FaultRates) zero() bool { return r.Drop == 0 && r.Dup == 0 && r.Delay == 0 }

func (r FaultRates) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"Drop", r.Drop}, {"Dup", r.Dup}, {"Delay", r.Delay}} {
		if p.v < 0 || p.v >= 1 {
			return fmt.Errorf("network: fault %s probability must be in [0,1), got %g", p.name, p.v)
		}
	}
	return nil
}

// Link is an ordered (source, destination) node pair.
type Link struct {
	Src, Dst int
}

// FaultConfig parameterizes the fault plane. The zero value — and any
// config with Seed 0 — disables it.
type FaultConfig struct {
	// Seed drives all fault randomness (splitmix64, the same discipline
	// as schedule jitter). 0 disables faults regardless of the rates.
	Seed uint64 `json:"seed"`
	// Rates apply to every network link (node-local deliveries that
	// bypass the network are never faulted: the fault plane models the
	// fabric, not the node).
	Rates FaultRates `json:"rates"`
	// DelayMax bounds the extra delay of delayed messages and trailing
	// duplicates, in cycles. 0 means DefaultDelayMax.
	DelayMax sim.Time `json:"delay_max,omitempty"`
	// Links optionally overrides the rates on specific ordered links
	// (e.g. one flaky switch port). Links absent from the map use Rates.
	Links map[Link]FaultRates `json:"-"`
}

// DefaultDelayMax is the extra-delay bound applied when DelayMax is 0.
const DefaultDelayMax sim.Time = 16

// Enabled reports whether the fault plane injects anything: a nonzero seed
// and at least one nonzero rate somewhere.
func (c FaultConfig) Enabled() bool {
	if c.Seed == 0 {
		return false
	}
	if !c.Rates.zero() {
		return true
	}
	for _, r := range c.Links {
		if !r.zero() {
			return true
		}
	}
	return false
}

// Validate reports whether the configuration is usable.
func (c FaultConfig) Validate() error {
	if err := c.Rates.validate(); err != nil {
		return err
	}
	for l, r := range c.Links {
		if err := r.validate(); err != nil {
			return fmt.Errorf("link %d->%d: %w", l.Src, l.Dst, err)
		}
	}
	return nil
}

// String renders the config compactly for error messages, so a failing
// chaos run is reproducible from the message alone.
func (c FaultConfig) String() string {
	if !c.Enabled() {
		return "faults=off"
	}
	s := fmt.Sprintf("faults{seed=%d drop=%g dup=%g delay=%g/%d",
		c.Seed, c.Rates.Drop, c.Rates.Dup, c.Rates.Delay, c.delayMax())
	if len(c.Links) > 0 {
		s += fmt.Sprintf(" +%d link overrides", len(c.Links))
	}
	return s + "}"
}

func (c FaultConfig) delayMax() sim.Time {
	if c.DelayMax == 0 {
		return DefaultDelayMax
	}
	return c.DelayMax
}

// FaultStats counts injected faults.
type FaultStats struct {
	// Dropped is the number of messages discarded.
	Dropped uint64
	// Duplicated is the number of messages delivered twice.
	Duplicated uint64
	// Delayed is the number of messages whose delivery was postponed.
	Delayed uint64
	// DelayCycles is the total extra delay injected (delays plus the lag
	// of trailing duplicates).
	DelayCycles uint64
}

// splitmix64 is the same mixer the schedule-jitter PRNG uses.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// faultPlane is the per-network fault state: one PRNG stream per ordered
// link, advanced once per decision. Stats are sharded by source node so
// that under a parallel (lane-per-node) run each lane touches only its own
// shard; a link's stream is likewise touched only by its source lane. A
// link's rates are the config's Rates, or, when the config overrides some
// links, the entry of a per-link table built from the overrides.
type faultPlane struct {
	cfg      FaultConfig
	delayMax sim.Time
	rates    []FaultRates // [src*n + dst] with link overrides; empty without
	streams  []uint64     // per-link splitmix64 state
	n        int
	stats    []FaultStats // [src]
}

func newFaultPlane(cfg FaultConfig, nodes int) *faultPlane {
	p := &faultPlane{}
	p.reset(cfg, nodes)
	return p
}

// reset returns the plane to the state newFaultPlane(cfg, nodes) builds,
// keeping its memory: every link's stream is reseeded and every count is
// zero.
func (p *faultPlane) reset(cfg FaultConfig, nodes int) {
	p.cfg, p.delayMax, p.n = cfg, cfg.delayMax(), nodes
	p.streams = slices.Grow(p.streams[:0], nodes*nodes)[:nodes*nodes]
	p.stats = slices.Grow(p.stats[:0], nodes)[:nodes]
	clear(p.stats)
	for s := 0; s < nodes; s++ {
		for d := 0; d < nodes; d++ {
			// Decorrelate the link streams: each starts at an
			// independent point derived from (seed, src, dst).
			p.streams[s*nodes+d] = splitmix64(cfg.Seed ^ splitmix64(uint64(s)<<32|uint64(d)))
		}
	}
	p.rates = p.rates[:0]
	if len(cfg.Links) == 0 {
		return
	}
	p.rates = slices.Grow(p.rates, nodes*nodes)[:nodes*nodes]
	for i := range p.rates {
		p.rates[i] = cfg.Rates
	}
	for l, r := range cfg.Links {
		if l.Src >= 0 && l.Src < nodes && l.Dst >= 0 && l.Dst < nodes {
			p.rates[l.Src*nodes+l.Dst] = r
		}
	}
}

// draw advances link i's stream and returns a uniform value in [0,1).
func (p *faultPlane) draw(i int) float64 {
	p.streams[i] = splitmix64(p.streams[i])
	return float64(p.streams[i]>>11) / (1 << 53)
}

// drawDelay returns a deterministic extra delay in [1, delayMax].
func (p *faultPlane) drawDelay(i int) sim.Time {
	p.streams[i] = splitmix64(p.streams[i])
	return 1 + sim.Time(p.streams[i]%uint64(p.delayMax))
}

// verdict is one message's fate.
type verdict struct {
	drop  bool
	extra sim.Time // added to the delivery time (0 = on time)
	dup   bool
	dupAt sim.Time // trailing duplicate's additional lag past delivery
}

// judge decides a message's fate on link src->dst. Exactly three rate draws
// happen per message (plus delay draws as needed), so a link's fault
// sequence depends only on its own message order.
func (p *faultPlane) judge(src, dst int) verdict {
	i := src*p.n + dst
	r := p.cfg.Rates
	if len(p.rates) > 0 {
		r = p.rates[i]
	}
	var v verdict
	if u := p.draw(i); u < r.Drop {
		v.drop = true
	}
	if u := p.draw(i); u < r.Delay {
		v.extra = p.drawDelay(i)
	}
	if u := p.draw(i); u < r.Dup {
		v.dup = true
		v.dupAt = p.drawDelay(i)
	}
	st := &p.stats[src]
	if v.drop {
		st.Dropped++
		return verdict{drop: true}
	}
	if v.extra > 0 {
		st.Delayed++
		st.DelayCycles += uint64(v.extra)
	}
	if v.dup {
		st.Duplicated++
		st.DelayCycles += uint64(v.dupAt)
	}
	return v
}

// total sums the per-source shards.
func (p *faultPlane) total() FaultStats {
	var t FaultStats
	for i := range p.stats {
		t.Dropped += p.stats[i].Dropped
		t.Duplicated += p.stats[i].Duplicated
		t.Delayed += p.stats[i].Delayed
		t.DelayCycles += p.stats[i].DelayCycles
	}
	return t
}
