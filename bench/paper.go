package main

import (
	"fmt"

	"ssmp/internal/core"
	"ssmp/internal/harness"
	"ssmp/internal/mem"
	"ssmp/internal/msg"
	"ssmp/internal/workload"
)

// paperCell is one point of Figures 4-7: a machine size, a cache scheme and
// consistency model, and a workload model at one grain.
type paperCell struct {
	figure  int
	series  string
	procs   int
	sync    bool // sync model; otherwise the work-queue model
	proto   core.Protocol
	cons    core.Consistency
	backoff bool
	grain   int
}

// paperCells is the harness grid of Figures 4-7 at harness.DefaultOptions.
func paperCells() []paperCell {
	opts := harness.DefaultOptions()
	var cells []paperCell
	for _, f := range []struct {
		fig   int
		grain int
	}{{4, workload.MediumGrain}, {5, workload.CoarseGrain}} {
		for _, n := range opts.Procs {
			cells = append(cells,
				paperCell{f.fig, "WBI", n, true, core.ProtoWBI, core.SC, false, f.grain},
				paperCell{f.fig, "CBL", n, true, core.ProtoCBL, core.SC, false, f.grain},
				paperCell{f.fig, "Q-WBI", n, false, core.ProtoWBI, core.SC, false, f.grain},
				paperCell{f.fig, "Q-backoff", n, false, core.ProtoWBI, core.SC, true, f.grain},
				paperCell{f.fig, "Q-CBL", n, false, core.ProtoCBL, core.SC, false, f.grain})
		}
	}
	for _, f := range []struct {
		fig   int
		grain int
	}{{6, workload.FineGrain}, {7, workload.MediumGrain}} {
		for _, n := range opts.Procs {
			cells = append(cells,
				paperCell{f.fig, "SC-CBL", n, false, core.ProtoCBL, core.SC, false, f.grain},
				paperCell{f.fig, "BC-CBL", n, false, core.ProtoCBL, core.BC, false, f.grain})
		}
	}
	return cells
}

// setupPaper computes the reference figures through the harness, which the
// cells run op by op must reproduce exactly.
func setupPaper(seed uint64, tm tamper) (job, error) {
	opts := harness.DefaultOptions()
	cells := paperCells()
	want := make([]uint64, len(cells))
	figs := map[int]harness.Figure{}
	for n := 4; n <= 7; n++ {
		f, err := opts.FigureByNumber(n)
		if err != nil {
			return nil, err
		}
		figs[n] = f
	}
	for i, c := range cells {
		for _, s := range figs[c.figure].Series {
			if s.Name != c.series {
				continue
			}
			if y, ok := s.Y(float64(c.procs)); ok {
				want[i] = uint64(y)
			}
		}
		if want[i] == 0 {
			return nil, fmt.Errorf("figure %d has no %s point at %d procs", c.figure, c.series, c.procs)
		}
	}
	if tm == tamperCell {
		for i := range want {
			want[i]++
		}
	}
	order := &passOrder{seed: seed, n: len(cells)}
	return &loopJob{op: func(i, parent int, tr *tracer, p *pass) error {
		ci := order.at(i)
		return runCell(cells[ci], want[ci], opts, i, parent, tr, p)
	}, kind: order.at}, nil
}

// runCell is one op: build the cell's programs, build its machine, run it,
// and compare its completion time with the harness's.
func runCell(c paperCell, want uint64, opts harness.Options, op, parent int, tr *tracer, p *pass) error {
	params := opts.Params
	params.Grain = c.grain
	cfg := core.DefaultConfig(c.procs)
	cfg.Protocol = c.proto
	cfg.Consistency = c.cons
	var progs []core.Program
	tr.span(parent, op, "workload", "workload.programs", func(int) error {
		layout := workload.NewLayout(mem.Geometry{BlockWords: cfg.BlockWords, Nodes: c.procs}, params)
		kit := workload.WBIKit(layout, c.procs, c.backoff)
		if c.proto == core.ProtoCBL {
			kit = workload.CBLKit(layout, c.procs)
		}
		if c.sync {
			progs = workload.SyncModel(c.procs, opts.Episodes, params, layout, kit, opts.Seed)
		} else {
			progs, _ = workload.WorkQueue(c.procs, opts.Tasks, opts.SpawnProb, params, layout, kit, opts.Seed)
		}
		return nil
	})
	var m *core.Machine
	tr.span(parent, op, "core", "core.NewMachine", func(int) error {
		m = core.NewMachine(cfg)
		return nil
	})
	var res core.Result
	err := tr.span(parent, op, "core", "core.Machine.Run", func(int) error {
		var err error
		res, err = m.Run(progs)
		return err
	})
	if err != nil {
		return fmt.Errorf("figure %d %s p=%d: %w", c.figure, c.series, c.procs, err)
	}
	addRun(p, res, c.proto)
	for cl := msg.Class(0); int(cl) < msg.NumClasses; cl++ {
		p.counts[cl.String()] += float64(m.Messages().Class(cl))
	}
	if uint64(res.Cycles) != want {
		return fmt.Errorf("figure %d %s p=%d: %d cycles, harness says %d", c.figure, c.series, c.procs, res.Cycles, want)
	}
	return nil
}

// addRun folds one machine run's counters into the pass.
func addRun(p *pass, res core.Result, proto core.Protocol) {
	c := p.counts
	c["runs"]++
	c["cycles"] += float64(res.Cycles)
	c["events"] += float64(res.Events)
	c["messages"] += float64(res.Messages)
	c["queue_cycles"] += res.MeanNetQueueing * float64(res.Messages)
	c["rmr_remote"] += float64(res.RMR.Remote)
	c["rmr_local"] += float64(res.RMR.Local)
	c["retries"] += float64(res.Faults.Retries)
	c["dup_suppressed"] += float64(res.Faults.DupSuppressed)
	c["acks"] += float64(res.Faults.AcksSent)
	c["dropped"] += float64(res.Faults.Dropped)
	if proto == core.ProtoCBL {
		c["cbl_runs"]++
		c["cbl_msgs"] += float64(res.Messages)
	} else {
		c["wbi_runs"]++
		c["wbi_msgs"] += float64(res.Messages)
	}
}
