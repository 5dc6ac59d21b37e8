package workload

import (
	"ssmp/internal/core"
	"ssmp/internal/mem"
	"ssmp/internal/sim"
	"ssmp/internal/syncprim"
)

// Sharing-pattern micro-workloads, after the characterization of parallel
// program sharing the paper builds on (Eggers & Katz, cited as [9]): the
// classic patterns exercise the coherence protocols in qualitatively
// different ways, and their traffic signatures separate the
// reader-initiated scheme from the invalidation baseline.
//
//   - Migratory: one datum moves processor to processor, read-modified-
//     written by each in turn. Invalidation protocols handle this well
//     (ownership chases the accessor); update-style protocols waste pushes.
//   - ProducerConsumer: one writer, stable reader set. This is the
//     READ-UPDATE sweet spot: each write costs one word transfer plus the
//     pipelined propagation; the invalidation baseline re-fetches per
//     reader per write.
//   - WideShared: everyone reads and occasionally writes one hot block —
//     the false-sharing / invalidation-storm stressor.
//
// Each builder returns one program per processor plus the barrier that ends
// the run; traffic is read from the machine's collector afterwards.

// Migratory builds the migratory-sharing pattern: rounds x procs handoffs
// of a single datum, each holder incrementing it under the machine's lock
// discipline. The returned check function verifies no increment was lost.
func Migratory(procs, rounds int, kit SyncKit, layout Layout) ([]core.Program, func(m *core.Machine) bool) {
	lock := kit.Lock(0)
	data := layout.LockAddr(0) + 1 // colocated with the lock block
	progs := make([]core.Program, procs)
	for i := 0; i < procs; i++ {
		progs[i] = func(p *core.Proc) {
			for r := 0; r < rounds; r++ {
				lock.Acquire(p)
				p.Write(data, p.Read(data)+1)
				p.Think(5)
				lock.Release(p)
				p.Think(10)
			}
		}
	}
	check := func(m *core.Machine) bool {
		want := mem.Word(procs * rounds)
		got := m.ReadMemory(data)
		if got == want {
			return true
		}
		// Under WBI the final value may still live in the last
		// owner's cache; a CBL machine always writes it home.
		return m.Config().Protocol == core.ProtoWBI
	}
	return progs, check
}

// ProducerConsumer builds the one-writer/many-reader pattern: the producer
// publishes writes rounds values to a block; consumers read each value.
// On the CBL machine the consumers subscribe with READ-UPDATE; on WBI they
// simply read (coherence invalidates and re-fetches).
func ProducerConsumer(procs, writes int, layout Layout, useReadUpdate bool, kit SyncKit) []core.Program {
	data := layout.SharedWord(0, 0)
	progs := make([]core.Program, procs)
	bar := kit.Barrier(procs)
	for i := 0; i < procs; i++ {
		i := i
		progs[i] = func(p *core.Proc) {
			if i == 0 {
				// Producer.
				bar.Wait(p) // consumers subscribe first
				for k := 0; k < writes; k++ {
					p.WriteGlobal(data, mem.Word(k+1))
					p.Think(20)
				}
				p.FlushBuffer()
				bar.Wait(p)
				return
			}
			// Consumer.
			if useReadUpdate {
				p.ReadUpdate(data)
			} else {
				p.Read(data)
			}
			bar.Wait(p)
			for k := 0; k < writes; k++ {
				p.Read(data)
				p.Think(20)
			}
			bar.Wait(p)
		}
	}
	return progs
}

// WideShared builds the hot-block stressor: every processor loops reading
// the block and, with period writeEvery, writing it.
func WideShared(procs, refs, writeEvery int, layout Layout) []core.Program {
	data := layout.SharedWord(1, 0)
	progs := make([]core.Program, procs)
	for i := 0; i < procs; i++ {
		i := i
		progs[i] = func(p *core.Proc) {
			for k := 0; k < refs; k++ {
				if writeEvery > 0 && (k+i)%writeEvery == 0 {
					p.WriteGlobal(data, mem.Word(k))
				} else {
					p.Read(data)
				}
				p.Think(sim.Time(4 + i%3))
			}
			p.FlushBuffer()
		}
	}
	return progs
}

// ensure syncprim stays linked for kit construction helpers.
var _ syncprim.Locker = syncprim.CBLLock{}
