package metrics

import "fmt"

// RMRCounters is the remote-memory-reference accounting of one processor
// (or, summed, of a whole run). The classification follows the
// cache-coherent (CC) model of the RMR-complexity literature (Golab et al.):
// a shared-memory reference that is satisfied by the issuing node's own
// cache — a private-cache hit, a lock-cache hit under a held lock, a
// subscribed READ-UPDATE line — is *local*; a reference that requires an
// interconnect transaction (any kind of miss, a global read or write, a
// lock or barrier operation that contacts a home node) is *remote*.
// Spinning on a locally cached word therefore costs nothing until the word
// is invalidated or updated, which is exactly the property queue locks and
// tree/dissemination barriers exploit.
//
// Writebacks are interconnect transactions caused by a reference (the
// eviction a miss forced) rather than being references themselves; they are
// accounted separately and attributed to the evicting processor.
type RMRCounters struct {
	// Local counts shared references served without an interconnect
	// transaction (cache hit, lock-cache hit, subscribed update line).
	Local uint64 `json:"local"`
	// Remote counts shared references that required an interconnect
	// transaction — remote memory references in the literature's sense.
	Remote uint64 `json:"remote"`
	// Writebacks counts dirty-eviction writebacks attributed to the
	// evicting processor.
	Writebacks uint64 `json:"writebacks"`
}

// Add merges another set of counters into this one.
func (c *RMRCounters) Add(o RMRCounters) {
	c.Local += o.Local
	c.Remote += o.Remote
	c.Writebacks += o.Writebacks
}

// References returns the total classified shared references (local +
// remote; writebacks are transactions, not references).
func (c RMRCounters) References() uint64 { return c.Local + c.Remote }

// Any reports whether any counter is nonzero.
func (c RMRCounters) Any() bool { return c != RMRCounters{} }

// String renders the counters compactly.
func (c RMRCounters) String() string {
	return fmt.Sprintf("local=%d remote=%d writebacks=%d", c.Local, c.Remote, c.Writebacks)
}

// RMRAccount attributes remote-memory-reference counts to the issuing
// processor. It lives in the fabric: the cache-side protocol controllers
// classify each shared access at the moment they decide hit vs miss, which
// is the only layer that knows whether the reference left the node. All
// mutation happens on the event-loop goroutine, so no locking is needed —
// the same single-writer discipline as every other simulation counter.
type RMRAccount struct {
	procs []RMRCounters
}

// NewRMRAccount returns an account with one slot per processor node.
func NewRMRAccount(nodes int) *RMRAccount {
	return &RMRAccount{procs: make([]RMRCounters, nodes)}
}

// Reset zeroes every processor's counters.
func (a *RMRAccount) Reset() { clear(a.procs) }

// LocalHit records a shared reference served locally by proc's cache.
func (a *RMRAccount) LocalHit(proc int) { a.procs[proc].Local++ }

// RemoteRef records a shared reference that crossed the interconnect.
func (a *RMRAccount) RemoteRef(proc int) { a.procs[proc].Remote++ }

// Writeback records a dirty eviction attributed to the evicting proc.
func (a *RMRAccount) Writeback(proc int) { a.procs[proc].Writebacks++ }

// Proc returns processor i's counters.
func (a *RMRAccount) Proc(i int) RMRCounters { return a.procs[i] }

// Procs returns the number of attribution slots.
func (a *RMRAccount) Procs() int { return len(a.procs) }

// PerProc returns a copy of the per-processor counters.
func (a *RMRAccount) PerProc() []RMRCounters {
	out := make([]RMRCounters, len(a.procs))
	copy(out, a.procs)
	return out
}

// Total sums the per-processor counters.
func (a *RMRAccount) Total() RMRCounters {
	var t RMRCounters
	for i := range a.procs {
		t.Add(a.procs[i])
	}
	return t
}
