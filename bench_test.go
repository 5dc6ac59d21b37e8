// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablation benches for the design choices DESIGN.md calls out. Each
// benchmark reports the figure's headline metric (completion cycles or
// messages) via b.ReportMetric, so `go test -bench=.` doubles as the
// experiment runner.
package ssmp_test

import (
	"context"
	"fmt"
	"testing"

	"ssmp"
	"ssmp/internal/bccheck"
	"ssmp/internal/core"
	"ssmp/internal/harness"
	"ssmp/internal/litmus"
	"ssmp/internal/msg"
	"ssmp/internal/network"
	"ssmp/internal/syncprim"
	"ssmp/internal/synczoo"
	"ssmp/internal/workload"
)

// benchOptions is the sweep used inside benchmarks: large enough to show
// the contention effects, small enough to iterate.
func benchOptions() harness.Options {
	o := harness.DefaultOptions()
	o.Procs = []int{4, 16}
	o.Episodes = 4
	o.Tasks = 64
	return o
}

// --- Table 2: linear solver traffic -------------------------------------

func benchmarkTable2(b *testing.B, readUpdate, colocate bool) {
	b.ReportAllocs()
	var cycles, blocks uint64
	for i := 0; i < b.N; i++ {
		cfg := ssmp.DefaultConfig(16)
		if !readUpdate {
			cfg.Protocol = ssmp.ProtoWBI
		}
		m := core.NewMachine(cfg)
		ls := &ssmp.LinSolver{N: 16, Iters: 10, Colocate: colocate, ReadUpdate: readUpdate}
		res, err := m.Run(ls.Programs(m.Geometry()))
		if err != nil {
			b.Fatal(err)
		}
		cycles = uint64(res.Cycles)
		blocks = m.Messages().Class(msg.BlockXfer)
	}
	b.ReportMetric(float64(cycles), "cycles")
	b.ReportMetric(float64(blocks), "block-xfers")
}

func BenchmarkTable2ReadUpdate(b *testing.B) { benchmarkTable2(b, true, true) }
func BenchmarkTable2InvI(b *testing.B)       { benchmarkTable2(b, false, true) }
func BenchmarkTable2InvII(b *testing.B)      { benchmarkTable2(b, false, false) }

// --- Table 3: synchronization scenarios ---------------------------------

func benchmarkParallelLock(b *testing.B, procs int, mk func() syncprim.Locker, proto ssmp.Protocol) {
	var msgs uint64
	for i := 0; i < b.N; i++ {
		cfg := ssmp.DefaultConfig(procs)
		cfg.Protocol = proto
		m := ssmp.NewMachine(cfg)
		l := mk()
		progs := make([]ssmp.Program, procs)
		for j := 0; j < procs; j++ {
			progs[j] = func(p *ssmp.Proc) {
				l.Acquire(p)
				p.Think(50)
				l.Release(p)
			}
		}
		res, err := m.Run(progs)
		if err != nil {
			b.Fatal(err)
		}
		msgs = res.Messages
	}
	b.ReportMetric(float64(msgs), "messages")
}

func BenchmarkTable3ParallelLockCBL(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchmarkParallelLock(b, n, func() syncprim.Locker {
				return ssmp.CBLLock{Addr: 400}
			}, ssmp.ProtoCBL)
		})
	}
}

func BenchmarkTable3ParallelLockWBI(b *testing.B) {
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchmarkParallelLock(b, n, func() syncprim.Locker {
				return ssmp.TestAndSetLock{Addr: 400}
			}, ssmp.ProtoWBI)
		})
	}
}

func BenchmarkTable3SerialLock(b *testing.B) {
	for _, scheme := range []string{"CBL", "WBI"} {
		b.Run(scheme, func(b *testing.B) {
			var msgs uint64
			for i := 0; i < b.N; i++ {
				cfg := ssmp.DefaultConfig(4)
				var l syncprim.Locker = ssmp.CBLLock{Addr: 400}
				if scheme == "WBI" {
					cfg.Protocol = ssmp.ProtoWBI
					l = ssmp.TestAndSetLock{Addr: 400}
				}
				m := ssmp.NewMachine(cfg)
				progs := make([]ssmp.Program, 4)
				progs[0] = func(p *ssmp.Proc) {
					l.Acquire(p)
					p.Think(50)
					l.Release(p)
				}
				res, err := m.Run(progs)
				if err != nil {
					b.Fatal(err)
				}
				msgs = res.Messages
			}
			b.ReportMetric(float64(msgs), "messages")
		})
	}
}

func BenchmarkTable3Barrier(b *testing.B) {
	for _, scheme := range []string{"CBL", "WBI"} {
		b.Run(scheme, func(b *testing.B) {
			var msgs uint64
			const procs = 16
			for i := 0; i < b.N; i++ {
				cfg := ssmp.DefaultConfig(procs)
				var bar syncprim.Barrier = ssmp.HWBarrier{Addr: 800, Participants: procs}
				if scheme == "WBI" {
					cfg.Protocol = ssmp.ProtoWBI
					bar = ssmp.SWBarrier{CountAddr: 800, GenAddr: 808, Participants: procs}
				}
				m := ssmp.NewMachine(cfg)
				progs := make([]ssmp.Program, procs)
				for j := 0; j < procs; j++ {
					progs[j] = func(p *ssmp.Proc) { bar.Wait(p) }
				}
				res, err := m.Run(progs)
				if err != nil {
					b.Fatal(err)
				}
				msgs = res.Messages
			}
			b.ReportMetric(float64(msgs), "messages")
		})
	}
}

// --- Figures 4-7 ---------------------------------------------------------

// benchFigure runs figure n at benchOptions and reports its every point.
func benchFigure(b *testing.B, n int) {
	var f harness.Figure
	for i := 0; i < b.N; i++ {
		var err error
		if f, err = benchOptions().FigureByNumber(n); err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range f.Series {
		for _, pt := range s.Points {
			b.ReportMetric(pt.Y, fmt.Sprintf("cycles-%s-p%g", s.Name, pt.X))
		}
	}
}

func BenchmarkFigure4(b *testing.B) { benchFigure(b, 4) }

func BenchmarkFigure5(b *testing.B) { benchFigure(b, 5) }

func BenchmarkFigure6(b *testing.B) { benchFigure(b, 6) }

func BenchmarkFigure7(b *testing.B) { benchFigure(b, 7) }

// --- Ablations ------------------------------------------------------------

// BenchmarkAblationNetworkContention compares the Ω network against an
// ideal contention-free network under the queue workload.
func BenchmarkAblationNetworkContention(b *testing.B) {
	for _, ideal := range []bool{false, true} {
		name := "omega"
		if ideal {
			name = "ideal"
		}
		b.Run(name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := ssmp.DefaultConfig(16)
				cfg.IdealNetwork = ideal
				p := ssmp.DefaultWorkloadParams()
				layout := ssmp.NewLayout(cfg, p)
				progs, _ := ssmp.WorkQueue(16, 64, 0, p, layout, ssmp.CBLKit(layout, 16), 42)
				res, err := ssmp.NewMachine(cfg).Run(progs)
				if err != nil {
					b.Fatal(err)
				}
				cycles = uint64(res.Cycles)
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationWriteBufferDepth bounds the write buffer, showing the
// cost of losing the paper's infinite-buffer assumption.
func BenchmarkAblationWriteBufferDepth(b *testing.B) {
	for _, depth := range []int{0, 1, 4, 16} {
		name := fmt.Sprintf("depth=%d", depth)
		if depth == 0 {
			name = "unbounded"
		}
		b.Run(name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := ssmp.DefaultConfig(8)
				cfg.Buf.Capacity = depth
				m := ssmp.NewMachine(cfg)
				progs := make([]ssmp.Program, 8)
				for j := 0; j < 8; j++ {
					j := j
					progs[j] = func(p *ssmp.Proc) {
						for k := 0; k < 200; k++ {
							p.WriteGlobal(ssmp.Addr(4096+32*j+k%8), ssmp.Word(k))
							p.Think(1)
						}
						p.FlushBuffer()
					}
				}
				res, err := m.Run(progs)
				if err != nil {
					b.Fatal(err)
				}
				cycles = uint64(res.Cycles)
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationLockBackoff sweeps backoff bounds for the WBI spin lock.
func BenchmarkAblationLockBackoff(b *testing.B) {
	for _, max := range []ssmp.Time{0, 256, 1024, 4096} {
		name := fmt.Sprintf("max=%d", max)
		if max == 0 {
			name = "none"
		}
		b.Run(name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := ssmp.DefaultConfig(16)
				cfg.Protocol = ssmp.ProtoWBI
				m := ssmp.NewMachine(cfg)
				var l syncprim.Locker = ssmp.TestAndSetLock{Addr: 400}
				if max > 0 {
					l = ssmp.BackoffLock{Addr: 400, Max: max}
				}
				progs := make([]ssmp.Program, 16)
				for j := 0; j < 16; j++ {
					progs[j] = func(p *ssmp.Proc) {
						for k := 0; k < 4; k++ {
							l.Acquire(p)
							p.Think(50)
							l.Release(p)
						}
					}
				}
				res, err := m.Run(progs)
				if err != nil {
					b.Fatal(err)
				}
				cycles = uint64(res.Cycles)
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationConsistency isolates BC vs SC on a write-heavy kernel
// (the Figures 6-7 effect, amplified).
func BenchmarkAblationConsistency(b *testing.B) {
	for _, cons := range []ssmp.Consistency{ssmp.BC, ssmp.SC} {
		b.Run(cons.String(), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := ssmp.DefaultConfig(16)
				cfg.Consistency = cons
				m := ssmp.NewMachine(cfg)
				progs := make([]ssmp.Program, 16)
				for j := 0; j < 16; j++ {
					j := j
					progs[j] = func(p *ssmp.Proc) {
						for k := 0; k < 100; k++ {
							p.WriteGlobal(ssmp.Addr(4096+32*j+k%8), ssmp.Word(k))
							p.Think(2)
						}
						p.FlushBuffer()
					}
				}
				res, err := m.Run(progs)
				if err != nil {
					b.Fatal(err)
				}
				cycles = uint64(res.Cycles)
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationUpdateChainLength measures propagation cost as the
// subscriber chain grows (the (n-1)||C_B term of Table 2).
func BenchmarkAblationUpdateChainLength(b *testing.B) {
	for _, subs := range []int{1, 7, 15, 31} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			var cycles uint64
			procs := subs + 1
			if procs < 4 {
				procs = 4
			}
			// Round up to a power of two.
			n := 2
			for n < procs {
				n *= 2
			}
			for i := 0; i < b.N; i++ {
				cfg := ssmp.DefaultConfig(n)
				m := ssmp.NewMachine(cfg)
				progs := make([]ssmp.Program, n)
				bar := ssmp.Addr(8192)
				data := ssmp.Addr(4096)
				parts := subs + 1
				progs[0] = func(p *ssmp.Proc) {
					p.Barrier(bar, parts)
					for k := 0; k < 50; k++ {
						p.WriteGlobal(data, ssmp.Word(k))
					}
					p.FlushBuffer()
					p.Barrier(bar+64, parts)
				}
				for j := 1; j <= subs; j++ {
					progs[j] = func(p *ssmp.Proc) {
						p.ReadUpdate(data)
						p.Barrier(bar, parts)
						p.Barrier(bar+64, parts)
					}
				}
				res, err := m.Run(progs)
				if err != nil {
					b.Fatal(err)
				}
				cycles = uint64(res.Cycles)
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationDirectHandoff compares home-arbitrated lock handoff
// against the paper's structural fast path (grant passed straight down the
// distributed queue) on a writer convoy.
func BenchmarkAblationDirectHandoff(b *testing.B) {
	for _, direct := range []bool{false, true} {
		name := "via-home"
		if direct {
			name = "direct"
		}
		b.Run(name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := ssmp.DefaultConfig(16)
				cfg.DirectHandoff = direct
				m := ssmp.NewMachine(cfg)
				l := ssmp.CBLLock{Addr: 400}
				progs := make([]ssmp.Program, 16)
				for j := 0; j < 16; j++ {
					progs[j] = func(p *ssmp.Proc) {
						for k := 0; k < 4; k++ {
							l.Acquire(p)
							p.Think(20)
							l.Release(p)
						}
					}
				}
				res, err := m.Run(progs)
				if err != nil {
					b.Fatal(err)
				}
				cycles = uint64(res.Cycles)
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationWriteUpdate compares reader-initiated coherence against
// classic sender-initiated write-update on a phased access pattern where
// reader interest expires (the §4.1 argument for the reader-initiated
// design).
func BenchmarkAblationWriteUpdate(b *testing.B) {
	// Pattern where reader interest expires: all 8 nodes read the block
	// once up front, then only node 1 keeps reading while node 0 writes.
	// Write-update keeps pushing to the 6 stale readers forever;
	// reader-initiated pays only for the one live subscriber.
	run := func(b *testing.B, writeUpdate bool) {
		var cycles, msgs uint64
		for i := 0; i < b.N; i++ {
			cfg := ssmp.DefaultConfig(8)
			cfg.WriteUpdate = writeUpdate
			m := ssmp.NewMachine(cfg)
			progs := make([]ssmp.Program, 8)
			data := ssmp.Addr(8192)
			bar := ssmp.Addr(4096)
			for j := 0; j < 8; j++ {
				j := j
				progs[j] = func(p *ssmp.Proc) {
					p.Read(data) // everyone reads once
					if !writeUpdate && j == 1 {
						p.ReadUpdate(data) // only node 1 stays interested
					}
					p.Barrier(bar, 8)
					switch j {
					case 0:
						for k := 0; k < 40; k++ {
							p.WriteGlobal(data, ssmp.Word(k))
							p.Think(4)
						}
						p.FlushBuffer()
					case 1:
						for k := 0; k < 40; k++ {
							p.Read(data)
							p.Think(4)
						}
					}
					p.Barrier(bar+64, 8)
				}
			}
			res, err := m.Run(progs)
			if err != nil {
				b.Fatal(err)
			}
			cycles = uint64(res.Cycles)
			msgs = res.Messages
		}
		b.ReportMetric(float64(cycles), "cycles")
		b.ReportMetric(float64(msgs), "messages")
	}
	b.Run("reader-initiated", func(b *testing.B) { run(b, false) })
	b.Run("write-update", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationLimitedDirectory compares the full-map WBI directory
// against Dir-2-B (two pointers, then broadcast) under wide sharing.
func BenchmarkAblationLimitedDirectory(b *testing.B) {
	for _, ptrs := range []int{0, 2} {
		name := "full-map"
		if ptrs > 0 {
			name = fmt.Sprintf("dir-%d-b", ptrs)
		}
		b.Run(name, func(b *testing.B) {
			var invs uint64
			for i := 0; i < b.N; i++ {
				cfg := ssmp.DefaultConfig(16)
				cfg.Protocol = ssmp.ProtoWBI
				cfg.DirMaxPointers = ptrs
				m := ssmp.NewMachine(cfg)
				progs := make([]ssmp.Program, 16)
				// Only 4 of the 16 nodes share the block: a full
				// map invalidates 3 copies per write; Dir-2-B has
				// overflowed and must broadcast to all 15.
				bar := ssmp.SWBarrier{CountAddr: 4096, GenAddr: 4104, Participants: 4}
				for j := 0; j < 4; j++ {
					j := j
					progs[j] = func(p *ssmp.Proc) {
						for round := 0; round < 4; round++ {
							p.Read(8192)
							bar.Wait(p)
							if j == round {
								p.Write(8192, ssmp.Word(round))
							}
							bar.Wait(p)
						}
					}
				}
				res, err := m.Run(progs)
				if err != nil {
					b.Fatal(err)
				}
				_ = res
				invs = m.Messages().Kind(msg.Inv)
			}
			b.ReportMetric(float64(invs), "invalidations")
		})
	}
}

// BenchmarkAblationDanceHall compares the distributed-memory organization
// against the dance-hall organization of the paper's Table 2 analysis.
func BenchmarkAblationDanceHall(b *testing.B) {
	for _, dance := range []bool{false, true} {
		name := "distributed"
		if dance {
			name = "dance-hall"
		}
		b.Run(name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := ssmp.DefaultConfig(16)
				cfg.DanceHall = dance
				p := ssmp.DefaultWorkloadParams()
				layout := ssmp.NewLayout(cfg, p)
				progs, _ := ssmp.WorkQueue(16, 32, 0, p, layout, ssmp.CBLKit(layout, 16), 42)
				res, err := ssmp.NewMachine(cfg).Run(progs)
				if err != nil {
					b.Fatal(err)
				}
				cycles = uint64(res.Cycles)
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationTopology compares the Ω network against a 2-D mesh on
// the work-queue workload (the paper leaves the interconnect unspecified;
// the contention bottleneck should dominate either way).
func BenchmarkAblationTopology(b *testing.B) {
	for _, top := range []network.Topology{network.TopOmega, network.TopMesh} {
		b.Run(top.String(), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := ssmp.DefaultConfig(16)
				cfg.Topology = top
				p := ssmp.DefaultWorkloadParams()
				layout := ssmp.NewLayout(cfg, p)
				progs, _ := ssmp.WorkQueue(16, 32, 0, p, layout, ssmp.CBLKit(layout, 16), 42)
				res, err := ssmp.NewMachine(cfg).Run(progs)
				if err != nil {
					b.Fatal(err)
				}
				cycles = uint64(res.Cycles)
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkSharingPatterns measures the traffic signature of the classic
// sharing patterns (Eggers & Katz) on both machines.
func BenchmarkSharingPatterns(b *testing.B) {
	type pat struct {
		name  string
		proto ssmp.Protocol
		build func(layout ssmp.Layout, kit ssmp.SyncKit) []ssmp.Program
	}
	pats := []pat{
		{"producer-consumer/CBL", ssmp.ProtoCBL, func(l ssmp.Layout, k ssmp.SyncKit) []ssmp.Program {
			return workload.ProducerConsumer(8, 20, l, true, k)
		}},
		{"producer-consumer/WBI", ssmp.ProtoWBI, func(l ssmp.Layout, k ssmp.SyncKit) []ssmp.Program {
			return workload.ProducerConsumer(8, 20, l, false, k)
		}},
		{"migratory/CBL", ssmp.ProtoCBL, func(l ssmp.Layout, k ssmp.SyncKit) []ssmp.Program {
			p, _ := workload.Migratory(8, 10, k, l)
			return p
		}},
		{"migratory/WBI", ssmp.ProtoWBI, func(l ssmp.Layout, k ssmp.SyncKit) []ssmp.Program {
			p, _ := workload.Migratory(8, 10, k, l)
			return p
		}},
		{"wide-shared/CBL", ssmp.ProtoCBL, func(l ssmp.Layout, k ssmp.SyncKit) []ssmp.Program {
			return workload.WideShared(8, 30, 5, l)
		}},
		{"wide-shared/WBI", ssmp.ProtoWBI, func(l ssmp.Layout, k ssmp.SyncKit) []ssmp.Program {
			return workload.WideShared(8, 30, 5, l)
		}},
	}
	for _, pt := range pats {
		b.Run(pt.name, func(b *testing.B) {
			var msgs, cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := ssmp.DefaultConfig(8)
				cfg.Protocol = pt.proto
				p := ssmp.DefaultWorkloadParams()
				layout := ssmp.NewLayout(cfg, p)
				var kit ssmp.SyncKit
				if pt.proto == ssmp.ProtoCBL {
					kit = ssmp.CBLKit(layout, 8)
				} else {
					kit = ssmp.WBIKit(layout, 8, false)
				}
				m := ssmp.NewMachine(cfg)
				res, err := m.Run(pt.build(layout, kit))
				if err != nil {
					b.Fatal(err)
				}
				msgs = res.Messages
				cycles = uint64(res.Cycles)
			}
			b.ReportMetric(float64(msgs), "messages")
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: simulated
// cycles per wall-clock second on the queue workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	var total uint64
	for i := 0; i < b.N; i++ {
		cfg := ssmp.DefaultConfig(16)
		p := ssmp.DefaultWorkloadParams()
		layout := ssmp.NewLayout(cfg, p)
		progs, _ := ssmp.WorkQueue(16, 32, 0, p, layout, ssmp.CBLKit(layout, 16), uint64(i))
		res, err := ssmp.NewMachine(cfg).Run(progs)
		if err != nil {
			b.Fatal(err)
		}
		total += uint64(res.Cycles)
	}
	b.ReportMetric(float64(total)/float64(b.N), "sim-cycles/op")
}

var _ = workload.DefaultParams // the workload package parameterizes benchOptions

// BenchmarkBusVersusOmegaScaling streams cold block fetches at growing
// processor counts on the bus and the Ω network. The bus's aggregate
// bandwidth is constant, so its completion time grows with the total
// traffic (~N), while the Ω network's bisection grows with N — the §1
// premise that motivates the whole paper. (On latency-bound workloads the
// 1-hop bus actually wins; saturation is a bandwidth phenomenon.)
func BenchmarkBusVersusOmegaScaling(b *testing.B) {
	for _, top := range []network.Topology{network.TopBus, network.TopOmega} {
		for _, procs := range []int{4, 16, 64} {
			b.Run(fmt.Sprintf("%s/n=%d", top, procs), func(b *testing.B) {
				var cycles uint64
				for i := 0; i < b.N; i++ {
					cfg := ssmp.DefaultConfig(procs)
					cfg.Topology = top
					m := ssmp.NewMachine(cfg)
					progs := make([]ssmp.Program, procs)
					for j := 0; j < procs; j++ {
						j := j
						progs[j] = func(p *ssmp.Proc) {
							for k := 0; k < 50; k++ {
								p.Read(ssmp.Addr(65536 + (j*50+k)*4))
							}
						}
					}
					res, err := m.Run(progs)
					if err != nil {
						b.Fatal(err)
					}
					cycles = uint64(res.Cycles)
				}
				b.ReportMetric(float64(cycles), "cycles")
			})
		}
	}
}

// BenchmarkMCSVersusCBL puts the software queue lock next to the hardware
// one under a 16-way convoy.
func BenchmarkMCSVersusCBL(b *testing.B) {
	type cse struct {
		name  string
		proto ssmp.Protocol
		mk    func() syncprim.Locker
	}
	cases := []cse{
		{"CBL", ssmp.ProtoCBL, func() syncprim.Locker { return ssmp.CBLLock{Addr: 400} }},
		{"MCS", ssmp.ProtoWBI, func() syncprim.Locker { return ssmp.MCSLock{TailAddr: 400, NodeBase: 2048} }},
		{"test-and-set", ssmp.ProtoWBI, func() syncprim.Locker { return ssmp.TestAndSetLock{Addr: 400} }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var cycles, msgs uint64
			for i := 0; i < b.N; i++ {
				cfg := ssmp.DefaultConfig(16)
				cfg.Protocol = c.proto
				m := ssmp.NewMachine(cfg)
				l := c.mk()
				progs := make([]ssmp.Program, 16)
				for j := 0; j < 16; j++ {
					progs[j] = func(p *ssmp.Proc) {
						for k := 0; k < 4; k++ {
							l.Acquire(p)
							p.Think(50)
							l.Release(p)
						}
					}
				}
				res, err := m.Run(progs)
				if err != nil {
					b.Fatal(err)
				}
				cycles = uint64(res.Cycles)
				msgs = res.Messages
			}
			b.ReportMetric(float64(cycles), "cycles")
			b.ReportMetric(float64(msgs), "messages")
		})
	}
}

// BenchmarkSyncZoo runs the synchronization-zoo contention sweep: every
// registered lock algorithm at small and large machine sizes, reporting
// remote memory references per acquisition and acquisition throughput.
// The rmr/acq column is the Mellor-Crummey & Scott separation in benchmark
// form: mcs and cbl stay flat from n=4 to n=32 while tas grows.
func BenchmarkSyncZoo(b *testing.B) {
	for _, algo := range ssmp.LockAlgos() {
		for _, n := range []int{4, 32} {
			b.Run(fmt.Sprintf("%s/n=%d", algo.Key, n), func(b *testing.B) {
				var pt ssmp.LockBenchPoint
				for i := 0; i < b.N; i++ {
					var err error
					pt, err = ssmp.RunLockBench(algo, synczoo.LockBenchOptions{
						Procs: n, Iters: 8, Crit: 16, Delay: 32,
					})
					if err != nil {
						b.Fatal(err)
					}
					if !pt.Verified() {
						b.Fatalf("mutual exclusion violated: final %d, want %d", pt.Final, pt.Want)
					}
				}
				b.ReportMetric(pt.RMRPerAcq(), "rmr/acq")
				b.ReportMetric(pt.AcqPerKCycle(), "acq/kcycle")
				b.ReportMetric(float64(pt.Cycles), "cycles")
			})
		}
	}
}

// BenchmarkSyncZooBarriers sweeps the barrier zoo the same way, in remote
// references per participant per episode.
func BenchmarkSyncZooBarriers(b *testing.B) {
	for _, algo := range ssmp.BarrierAlgos() {
		for _, n := range []int{4, 32} {
			b.Run(fmt.Sprintf("%s/n=%d", algo.Key, n), func(b *testing.B) {
				var pt ssmp.BarrierBenchPoint
				for i := 0; i < b.N; i++ {
					var err error
					pt, err = ssmp.RunBarrierBench(algo, synczoo.BarrierBenchOptions{
						Procs: n, Episodes: 4, Work: 40,
					})
					if err != nil {
						b.Fatal(err)
					}
					if !pt.Verified() {
						b.Fatal("barrier separation violated")
					}
				}
				b.ReportMetric(pt.RMRPerEpisode(), "rmr/episode")
				b.ReportMetric(float64(pt.Cycles), "cycles")
			})
		}
	}
}

// BenchmarkEnumerate measures the raw exploration engine on three classic
// shapes: SB (wide 2-proc interleaving), message passing through update
// subscriptions (propagation multiset), and a 4-proc IRIW-style program
// whose reader pairs blow up the interleaving space.
func BenchmarkEnumerate(b *testing.B) {
	x := bccheck.Loc{Block: 0}
	y := bccheck.Loc{Block: 1}
	cases := []struct {
		name string
		prog bccheck.Program
		opts bccheck.Options
	}{
		{
			name: "sb",
			prog: bccheck.Program{
				{{Op: bccheck.OpWriteGlobal, Loc: x, Val: 1}, {Op: bccheck.OpReadGlobal, Loc: y}},
				{{Op: bccheck.OpWriteGlobal, Loc: y, Val: 1}, {Op: bccheck.OpReadGlobal, Loc: x}},
			},
		},
		{
			name: "mp-update",
			prog: bccheck.Program{
				{{Op: bccheck.OpWriteGlobal, Loc: x, Val: 1}, {Op: bccheck.OpWriteGlobal, Loc: y, Val: 1}, {Op: bccheck.OpFlush}},
				{{Op: bccheck.OpReadUpdate, Loc: y}, {Op: bccheck.OpReadUpdate, Loc: x}},
			},
		},
		{
			name: "iriw-update",
			prog: bccheck.Program{
				{{Op: bccheck.OpWriteGlobal, Loc: x, Val: 1}},
				{{Op: bccheck.OpWriteGlobal, Loc: y, Val: 1}},
				{{Op: bccheck.OpReadUpdate, Loc: x}, {Op: bccheck.OpReadGlobal, Loc: y}},
				{{Op: bccheck.OpReadUpdate, Loc: y}, {Op: bccheck.OpReadGlobal, Loc: x}},
			},
		},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var states int
			for i := 0; i < b.N; i++ {
				res, err := bccheck.Enumerate(c.prog, c.opts)
				if err != nil {
					b.Fatal(err)
				}
				states = res.States
			}
			b.ReportMetric(float64(states), "states")
			b.ReportMetric(float64(states)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
		})
	}
}

// BenchmarkLitmusCorpus enumerates the full embedded corpus — the
// axiomatic half of what `make litmus` and /v1/litmus pay per job. The
// sym=on/sym=off variants isolate the symmetry quotient: same verdicts
// (pinned by the differential tests), fewer states explored.
func BenchmarkLitmusCorpus(b *testing.B) {
	tests, err := litmus.Corpus()
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		tune bccheck.Tuning
	}{
		{"sym=on", bccheck.Tuning{}},
		{"sym=off", bccheck.Tuning{DisableSymmetry: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var states int
			for i := 0; i < b.N; i++ {
				states = 0
				for _, t := range tests {
					rep, err := litmus.RunTuned(t, nil, bc.tune)
					if err != nil {
						b.Fatal(err)
					}
					states += rep.States
				}
			}
			b.ReportMetric(float64(states), "states")
			b.ReportMetric(float64(states)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
		})
	}
}

// BenchmarkPDESStencil sweeps the parallel engine's worker count on a
// 512-node nearest-neighbour stencil — the PDES scaling workload. The
// workers=0 variant is the classic serial engine, i.e. the sequential
// simulator every PDES speedup curve is measured against; workers>=1 run
// the time-windowed lane engine. All variants produce bit-identical
// strips (checked against the sequential reference each run).
func BenchmarkPDESStencil(b *testing.B) {
	benchmarkPDESStencil(b, true, []int{0, 1, 2, 4, 8})
}

// BenchmarkPDESStencilContended is the same sweep on the real contended
// omega network: switch-port queueing on, window-barrier arbitration
// resolving contention at each merge. The speedup the lane engine keeps
// here — not the ideal-network one — is the number that says the PDES
// engine runs the machine the paper measures.
func BenchmarkPDESStencilContended(b *testing.B) {
	benchmarkPDESStencil(b, false, []int{0, 1, 2, 4})
}

func benchmarkPDESStencil(b *testing.B, ideal bool, workerSet []int) {
	spec := workload.StencilSpec{Procs: 1024, CellsPer: 48, Iters: 6, Work: 8}
	want := spec.Reference()
	for _, w := range workerSet {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				cfg := ssmp.DefaultConfig(spec.Procs)
				cfg.IdealNetwork = ideal
				cfg.SimWorkers = w
				m := core.NewMachine(cfg)
				progs, strips := spec.Programs(m.Geometry())
				res, err := m.Run(progs)
				if err != nil {
					b.Fatal(err)
				}
				cycles = uint64(res.Cycles)
				for pid, strip := range strips {
					for c, v := range strip {
						if v != want[pid*spec.CellsPer+c] {
							b.Fatalf("workers=%d: cell (%d,%d) diverged from the sequential reference", w, pid, c)
						}
					}
				}
			}
			b.ReportMetric(float64(cycles), "sim-cycles/op")
		})
	}
}

// BenchmarkPDESKV drives the in-sim key-value service — closed control
// loops, retransmission timers and all — through the lane engine on the
// contended network, against the workers=0 serial baseline. Unlike the
// open-loop stencil, KV sessions react to replies, so this is the
// adversarial case for window-barrier arbitration: every window's merge
// replays contended sends before the next window's reactions are computed.
func BenchmarkPDESKV(b *testing.B) {
	spec := ssmp.DefaultKVSpec(64)
	spec.Keys = 256
	spec.Shards = 16
	spec.Sessions = 2
	spec.Ops = 64
	spec.SubCap = 32
	for _, w := range []int{0, 1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			var res *ssmp.KVResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = ssmp.RunKV(context.Background(), spec, ssmp.KVRunOptions{SimWorkers: w})
				if err != nil {
					b.Fatal(err)
				}
				if err := res.Check(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Sim.Cycles), "sim-cycles/op")
			b.ReportMetric(res.ThroughputOpsPerKCycle(), "ops/kcycle")
		})
	}
}

// BenchmarkKVStore runs the in-sim key-value service across machine sizes
// for the write-invalidate (mcs-locked) and competitive-update (cbl-locked)
// configurations, reporting the latency quantiles and throughput that the
// README and EXPERIMENTS.md tabulate. The p50/p99 separation between cbl
// and mcs under a read-mostly mix is the KV-form of the paper's protocol
// comparison: cbl's READ-UPDATE fast path answers hot gets from the cache
// while mcs sends every read home.
func BenchmarkKVStore(b *testing.B) {
	for _, lock := range []string{"cbl", "mcs"} {
		for _, n := range []int{4, 8, 16, 32} {
			b.Run(fmt.Sprintf("lock=%s/procs=%d", lock, n), func(b *testing.B) {
				spec := ssmp.DefaultKVSpec(n)
				spec.Lock = lock
				spec.Keys = 256
				spec.Shards = 16
				spec.Sessions = 2
				spec.Ops = 96
				spec.SubCap = 32
				var res *ssmp.KVResult
				for i := 0; i < b.N; i++ {
					var err error
					res, err = ssmp.RunKV(context.Background(), spec, ssmp.KVRunOptions{})
					if err != nil {
						b.Fatal(err)
					}
					if err := res.Check(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(res.P50()), "p50-cycles")
				b.ReportMetric(float64(res.P99()), "p99-cycles")
				b.ReportMetric(res.ThroughputOpsPerKCycle(), "ops/kcycle")
				b.ReportMetric(float64(res.Sim.Cycles), "cycles")
			})
		}
	}
}
