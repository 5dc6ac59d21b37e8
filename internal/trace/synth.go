package trace

import (
	"fmt"
	"math/rand/v2"

	"ssmp/internal/core"
	"ssmp/internal/mem"
)

// SynthParams parameterize Synthesize.
type SynthParams struct {
	// Procs is the number of processor sections.
	Procs int
	// Events is the number of events per processor.
	Events int
	// SharedRatio, ReadRatio and HitRatio follow the sync workload model
	// (Table 4).
	SharedRatio float64
	ReadRatio   float64
	HitRatio    float64
	// LockEvery inserts a lock/unlock critical section every LockEvery
	// events (0 disables locks).
	LockEvery int
	// Seed drives the generator.
	Seed uint64
	// WBI emits RMW-based synchronization instead of CBL lock primitives
	// so the trace replays on the WBI machine.
	WBI bool
}

// DefaultSynthParams mirrors the sync workload model's Table 4 settings.
func DefaultSynthParams(procs int) SynthParams {
	return SynthParams{
		Procs:       procs,
		Events:      200,
		SharedRatio: 0.03,
		ReadRatio:   0.85,
		HitRatio:    0.95,
		LockEvery:   40,
		Seed:        42,
	}
}

// Synthesize generates a probabilistic trace in the spirit of the sync
// workload model, suitable for exercising the trace-driven path without a
// captured application trace. Shared data lives in blocks 0..31; the lock
// variable in block 256.
func Synthesize(p SynthParams) (*Trace, error) {
	if p.Procs < 1 || p.Events < 1 {
		return nil, fmt.Errorf("trace: Procs and Events must be positive, got %d/%d", p.Procs, p.Events)
	}
	if p.SharedRatio < 0 || p.SharedRatio > 1 || p.ReadRatio < 0 || p.ReadRatio > 1 ||
		p.HitRatio < 0 || p.HitRatio > 1 {
		return nil, fmt.Errorf("trace: ratios must be in [0,1]")
	}
	const (
		sharedBlocks = 32
		blockWords   = 4
		lockAddr     = 256 * blockWords
	)
	t := &Trace{Procs: make([][]core.Op, p.Procs)}
	for i := 0; i < p.Procs; i++ {
		rng := rand.New(rand.NewPCG(p.Seed, uint64(i)))
		evs := make([]core.Op, 0, p.Events+p.Events/8)
		for e := 0; e < p.Events; e++ {
			if p.LockEvery > 0 && e > 0 && e%p.LockEvery == 0 {
				if p.WBI {
					// Test-and-set style: one RMW models the
					// acquire attempt; the release is a write.
					evs = append(evs,
						core.Op{Kind: core.OpRMW, Addr: lockAddr, Val: 1},
						core.Op{Kind: core.OpThink, Val: 20},
						core.Op{Kind: core.OpWrite, Addr: lockAddr, Val: 0},
					)
				} else {
					evs = append(evs,
						core.Op{Kind: core.OpWriteLock, Addr: lockAddr},
						core.Op{Kind: core.OpThink, Val: 20},
						core.Op{Kind: core.OpUnlock, Addr: lockAddr},
					)
				}
				continue
			}
			read := rng.Float64() < p.ReadRatio
			if rng.Float64() < p.SharedRatio {
				a := uint64(rng.IntN(sharedBlocks * blockWords))
				if read {
					evs = append(evs, core.Op{Kind: core.OpRead, Addr: mem.Addr(a)})
				} else if p.WBI {
					evs = append(evs, core.Op{Kind: core.OpWrite, Addr: mem.Addr(a), Val: mem.Word(e)})
				} else {
					evs = append(evs, core.Op{Kind: core.OpWriteGlobal, Addr: mem.Addr(a), Val: mem.Word(e)})
				}
				continue
			}
			evs = append(evs, core.Op{Kind: core.OpPrivate, Write: !read, Hit: rng.Float64() < p.HitRatio})
		}
		if !p.WBI {
			evs = append(evs, core.Op{Kind: core.OpFlush})
		}
		t.Procs[i] = evs
	}
	return t, nil
}
