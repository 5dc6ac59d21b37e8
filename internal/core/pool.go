package core

import (
	"sync"
	"sync/atomic"
)

// The machine pool: machines whose runs are over, kept for a later run of
// the same shape, so that a caller running many machines of a few shapes —
// a litmus sweep, a KV service — builds a few and resets them instead of
// building one per run. A reset machine runs exactly as a fresh one, so
// reuse changes no result.

// shelf holds the idle machines of one shape: every Config field that
// Reset may not change, the fields resettableTo compares.
type shelf struct {
	cfg  Config
	idle sync.Pool
}

// shelves is the pool: a list of shelves, one per shape, replaced whole
// when a shape is added. Every litmus seed looks its shelf up twice, from
// as many goroutines as a sweep runs, so a lookup reads the list without
// taking the lock.
var shelves struct {
	mu   sync.Mutex // held while a shelf is added
	list atomic.Pointer[[]*shelf]
}

// shelfFor returns the shelf of cfg's shape, adding it when it is new; a
// new shape must be a valid configuration, or it panics.
func shelfFor(cfg *Config) *shelf {
	if s := findShelf(cfg); s != nil {
		return s
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	shelves.mu.Lock()
	defer shelves.mu.Unlock()
	if s := findShelf(cfg); s != nil {
		return s
	}
	var list []*shelf
	if old := shelves.list.Load(); old != nil {
		list = append(list, *old...)
	}
	s := &shelf{cfg: *cfg}
	list = append(list, s)
	shelves.list.Store(&list)
	return s
}

func findShelf(cfg *Config) *shelf {
	if list := shelves.list.Load(); list != nil {
		for _, s := range *list {
			if s.cfg.resettableTo(cfg) {
				return s
			}
		}
	}
	return nil
}

// GetMachine returns a machine in the state NewMachine(cfg) builds: an idle
// machine of cfg's shape reset to cfg, or a new build when the pool has
// none. It panics on an invalid configuration, as NewMachine does. Hand
// the machine back with PutMachine once its run is over and read.
func GetMachine(cfg Config) *Machine {
	s := shelfFor(&cfg)
	if m, ok := s.idle.Get().(*Machine); ok {
		m.Reset(cfg)
		return m
	}
	m := NewMachine(cfg)
	m.shelf = s
	return m
}

// PutMachine puts m in the pool for a later GetMachine of its shape. The
// caller must not use m, nor the words its RunOps returned, again. m lets
// go at once of what it holds of its last run's caller — the programs and
// what they reach, op lists, observers, the history recorder and the
// cancellation poll — so a pooled machine pins none of it.
func PutMachine(m *Machine) {
	m.release()
	if m.shelf == nil {
		m.shelf = shelfFor(&m.cfg)
	}
	m.shelf.idle.Put(m)
}

// release drops the machine's references to its last run's caller; the
// rest of the run's state stays until Reset.
func (m *Machine) release() {
	for i := range m.nodes {
		p := &m.nodes[i].proc
		p.next, p.yield, p.list = nil, nil, nil
	}
	m.onOp, m.hist, m.fab.OnSend = nil, nil, nil
	// A one-lane run installs the poll on its lane as well.
	m.par.SetInterrupt(nil)
	m.par.Lane(0).SetInterrupt(nil)
}
