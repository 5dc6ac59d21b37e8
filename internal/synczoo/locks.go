package synczoo

import (
	"ssmp/internal/core"
	"ssmp/internal/mem"
	"ssmp/internal/sim"
)

// TTASLock is test-and-test-and-set with bounded exponential backoff: the
// acquire path spins on the *cached* copy of the lock word (a local hit
// until the holder's release invalidates it) and only issues the RMW when
// the word reads free, backing off between failed attempts. Compared with
// plain test-and-set, the RMW storm after a release is the only remaining
// remote traffic; compared with pure backoff, an uncontended acquire does
// not sleep.
type TTASLock struct {
	Addr mem.Addr
	// Base and Max bound the backoff delay in cycles; zero values default
	// to 16 and 1024.
	Base, Max sim.Time
}

// Acquire spins on the cached copy, then attempts the test-and-set.
func (l TTASLock) Acquire(p *core.Proc) {
	base, max := l.Base, l.Max
	if base == 0 {
		base = 16
	}
	if max == 0 {
		max = 1024
	}
	delay := base
	for {
		p.Spin(core.OpRead, l.Addr, core.WhileUnequal, 0)
		if p.RMW(l.Addr, func(mem.Word) mem.Word { return 1 }) == 0 {
			return
		}
		// Lost the race to another spinner: back off before re-testing.
		p.Think(delay)
		if delay < max {
			delay *= 2
			if delay > max {
				delay = max
			}
		}
	}
}

// Release clears the lock word, invalidating the spinners' cached copies.
func (l TTASLock) Release(p *core.Proc) { p.Write(l.Addr, 0) }

// Name identifies the algorithm.
func (l TTASLock) Name() string { return "WBI-ttas" }
