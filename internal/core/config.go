// Package core assembles the paper's machine architecture (§4, Figure 1):
// per-node processor, private cache, write buffer and network controller,
// the distributed main memory with its central directory, and the hardware
// primitives of Table 1 — READ, WRITE, READ-GLOBAL, WRITE-GLOBAL,
// READ-UPDATE, RESET-UPDATE, FLUSH-BUFFER, READ-LOCK, WRITE-LOCK, UNLOCK —
// under either the buffered-consistency or the sequential-consistency
// memory model. A write-back-invalidation machine (the paper's §5 baseline)
// can be assembled instead, exposing coherent READ/WRITE plus an atomic
// read-modify-write.
package core

import (
	"fmt"

	"ssmp/internal/fabric"
	"ssmp/internal/network"
	"ssmp/internal/sim"
	"ssmp/internal/wbuf"
)

// Protocol selects the machine's cache architecture.
type Protocol uint8

const (
	// ProtoCBL is the paper's machine: reader-initiated update coherence,
	// cache-based locks, hardware barrier, write buffer.
	ProtoCBL Protocol = iota
	// ProtoWBI is the write-back invalidation baseline with strongly
	// consistent writes and an atomic RMW primitive.
	ProtoWBI
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case ProtoCBL:
		return "CBL"
	case ProtoWBI:
		return "WBI"
	}
	return "proto?"
}

// ParseProtocol returns the protocol named "cbl" or "wbi", the lower-case
// form of String.
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "cbl":
		return ProtoCBL, nil
	case "wbi":
		return ProtoWBI, nil
	}
	return ProtoCBL, fmt.Errorf("unknown protocol %q (want cbl or wbi)", s)
}

// Consistency selects the memory model for global writes on the CBL
// machine.
type Consistency uint8

const (
	// BC is buffered consistency (§2): global writes retire through the
	// write buffer; the processor stalls only at FLUSH-BUFFER, which
	// CP-Synch operations (unlock, barrier) issue implicitly.
	BC Consistency = iota
	// SC is sequential consistency: every global write stalls the
	// processor until the memory acknowledgment arrives.
	SC
)

// String names the consistency model.
func (c Consistency) String() string {
	switch c {
	case BC:
		return "BC"
	case SC:
		return "SC"
	}
	return "consistency?"
}

// ParseConsistency returns the memory model named "bc" or "sc", the
// lower-case form of String.
func ParseConsistency(s string) (Consistency, error) {
	switch s {
	case "bc":
		return BC, nil
	case "sc":
		return SC, nil
	}
	return BC, fmt.Errorf("unknown consistency %q (want bc or sc)", s)
}

// Config parameterizes a Machine. DefaultConfig supplies the paper's
// Table 4 values.
type Config struct {
	// Nodes is the number of processor/memory nodes (a power of two).
	Nodes int
	// BlockWords is the cache line / memory block size in words.
	BlockWords int
	// CacheSets and CacheWays size each node's private cache.
	CacheSets, CacheWays int
	// LockEntries sizes the fully-associative lock cache (CBL machine).
	LockEntries int
	// DirectHandoff lets a releasing write holder pass the lock grant
	// (and data) straight to a waiting writer successor, one network
	// transit per handoff (§4.3's structural fast path; ablation).
	DirectHandoff bool
	// WriteUpdate switches the CBL machine's coherence to classic
	// sender-initiated write-update: read misses subscribe implicitly and
	// forever (the Firefly/Dragon-style scheme §4.1 contrasts with the
	// reader-initiated design; ablation).
	WriteUpdate bool
	// DirMaxPointers caps the WBI directory's sharer pointers (Dir-i-B);
	// overflow degrades the entry to broadcast invalidation. 0 = full map.
	DirMaxPointers int
	// Topology selects the interconnect: the paper's Ω network (default)
	// or a 2-D mesh.
	Topology network.Topology
	// Protocol selects the machine type.
	Protocol Protocol
	// Consistency selects SC or BC (CBL machine; WBI is always strongly
	// consistent).
	Consistency Consistency
	// Timing holds the latency parameters (t_D, t_m, hit time).
	Timing fabric.Timing
	// SwitchDelay and LocalDelay parameterize the Ω network.
	SwitchDelay sim.Time
	LocalDelay  sim.Time
	// IdealNetwork removes switch contention (ablation).
	IdealNetwork bool
	// DanceHall separates all memory from the processors (the Table 2
	// analysis organization): even a block homed at this node's module is
	// reached through the network, and private misses pay network transit.
	DanceHall bool
	// Buf configures the write buffer (the paper assumes unbounded).
	Buf wbuf.Options
	// Horizon aborts runs that exceed this many cycles (livelock guard).
	Horizon sim.Time
	// Jitter seeds pseudo-random tie-breaking among same-cycle events,
	// letting litmus sweeps explore alternative legal schedules. 0 (the
	// default) disables it, keeping runs bit-identical to the canonical
	// (time, insertion order) schedule. Any nonzero seed is deterministic.
	Jitter uint64
	// Faults parameterizes the interconnect's deterministic fault plane
	// (seeded per-link drop/duplicate/delay; network.FaultConfig). When
	// enabled, the fabric's reliable transport is enabled with it —
	// request timeouts, bounded-exponential-backoff retransmission,
	// duplicate suppression, per-link FIFO reassembly — so the protocol
	// survives the misbehaving fabric. Seed 0 (the default) disables both,
	// keeping runs bit-identical to the fault-free machine.
	Faults network.FaultConfig
	// SimWorkers sets how the event population is partitioned into lanes
	// of the PDES kernel (internal/sim/pdes.go) that every machine runs on.
	// 0 (the default) is a serial run: one lane holds every node and runs
	// its own event loop, in the serial engine's exact event order, so the
	// golden digests hold. Any value >= 1 puts one lane on each node and
	// runs them under a conservative time-windowed loop with a
	// deterministic mailbox merge, each window's lanes one after another
	// on the caller's goroutine; the value's size changes nothing, so
	// results are bit-identical at every value >= 1. They follow the
	// per-lane key order, a different partition from the one-lane run.
	// Contended networks (Ω and mesh) are lane-safe: switch-port occupancy
	// is resolved by the coordinator's window-barrier arbiter in global
	// injection-key order (network.NewParallel). The bus topology — a
	// single shared medium with no lane-parallel structure — always runs
	// one lane, so its result is the serial one at any SimWorkers. History
	// recording, message tracing and OnOp observers work on any number of
	// lanes, and report window by window, lane by lane.
	SimWorkers int
}

// DefaultConfig returns the paper's simulation parameters (Table 4):
// 4-word blocks, 1024-block caches, 4-cycle memory, unbounded write buffer.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:       nodes,
		BlockWords:  4,
		CacheSets:   512,
		CacheWays:   2,
		LockEntries: 16,
		Protocol:    ProtoCBL,
		Consistency: BC,
		Timing:      fabric.DefaultTiming(),
		SwitchDelay: 1,
		LocalDelay:  1,
		Horizon:     2_000_000_000,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Nodes < 2 || c.Nodes&(c.Nodes-1) != 0 {
		return fmt.Errorf("core: Nodes must be a power of two >= 2, got %d", c.Nodes)
	}
	if c.BlockWords < 1 || c.BlockWords > 64 {
		return fmt.Errorf("core: BlockWords must be in [1,64], got %d", c.BlockWords)
	}
	if c.CacheSets < 1 || c.CacheSets&(c.CacheSets-1) != 0 {
		return fmt.Errorf("core: CacheSets must be a power of two >= 1, got %d", c.CacheSets)
	}
	if c.CacheWays < 1 {
		return fmt.Errorf("core: CacheWays must be >= 1, got %d", c.CacheWays)
	}
	if c.Protocol == ProtoCBL && c.LockEntries < 1 {
		return fmt.Errorf("core: LockEntries must be >= 1, got %d", c.LockEntries)
	}
	if c.Horizon == 0 {
		return fmt.Errorf("core: Horizon must be positive")
	}
	if c.SimWorkers < 0 {
		return fmt.Errorf("core: SimWorkers must be >= 0, got %d", c.SimWorkers)
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// resettableTo reports whether a machine built for c can be reset to o:
// the two may differ only in Jitter and Faults.
func (c *Config) resettableTo(o *Config) bool {
	return c.Nodes == o.Nodes && c.BlockWords == o.BlockWords &&
		c.CacheSets == o.CacheSets && c.CacheWays == o.CacheWays &&
		c.LockEntries == o.LockEntries && c.DirectHandoff == o.DirectHandoff &&
		c.WriteUpdate == o.WriteUpdate && c.DirMaxPointers == o.DirMaxPointers &&
		c.Topology == o.Topology && c.Protocol == o.Protocol &&
		c.Consistency == o.Consistency && c.Timing == o.Timing &&
		c.SwitchDelay == o.SwitchDelay && c.LocalDelay == o.LocalDelay &&
		c.IdealNetwork == o.IdealNetwork && c.DanceHall == o.DanceHall &&
		c.Buf == o.Buf && c.Horizon == o.Horizon &&
		c.SimWorkers == o.SimWorkers
}

// netConfig derives the network configuration.
func (c Config) netConfig() network.Config {
	return network.Config{
		Nodes:       c.Nodes,
		SwitchDelay: c.SwitchDelay,
		LocalDelay:  c.LocalDelay,
		Ideal:       c.IdealNetwork,
		DanceHall:   c.DanceHall,
		Topology:    c.Topology,
		Faults:      c.Faults,
	}
}
