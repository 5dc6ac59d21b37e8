// Package harness reproduces the paper's evaluation (§5): the four
// simulation figures and simulated counterparts of the two analytical
// tables.
//
//   - Figure 4: completion time vs processors, medium-granularity
//     parallelism — WBI and CBL under the sync workload model, and Q-WBI,
//     Q-backoff, Q-CBL under the work-queue model.
//   - Figure 5: the same at coarse granularity.
//   - Figure 6: BC-CBL vs SC-CBL (buffered vs sequential consistency),
//     fine granularity, work-queue model.
//   - Figure 7: the same at medium granularity.
//   - Table 2: linear-solver network traffic, measured by running the
//     solver on the simulated machines next to the closed-form model.
//   - Table 3: synchronization scenario costs, measured by running the
//     scenarios on the simulated machines next to the closed-form model.
package harness

import (
	"context"
	"fmt"
	"io"
	"sync"

	"ssmp/internal/core"
	"ssmp/internal/fan"
	"ssmp/internal/mem"
	"ssmp/internal/metrics"
	"ssmp/internal/network"
	"ssmp/internal/workload"
)

// Options parameterize the experiment sweeps.
type Options struct {
	// Procs is the processor-count sweep (powers of two).
	Procs []int
	// Episodes is the sync model's episodes per processor.
	Episodes int
	// Tasks is the work-queue model's initial task count.
	Tasks int
	// SpawnProb is the work-queue model's task-spawn probability.
	SpawnProb float64
	// Seed drives all workload randomness.
	Seed uint64
	// Params supplies Table 4 parameters; the grain is overridden per
	// figure.
	Params workload.Params
	// Faults configures interconnect fault injection for every simulation
	// in the sweep (zero = reliable fabric). The committed experiment runs
	// and their golden digests use the zero value; chaos sweeps set a
	// nonzero seed and rates to check that the figures survive a lossy
	// fabric.
	Faults network.FaultConfig
	// SimWorkers sets each simulated machine's PDES worker count
	// (core.Config.SimWorkers): 0 is a serial run, the kernel's one-lane
	// case; >= 1 runs one lane per node under the time-windowed loop.
	// Contended Ω and mesh networks are lane-safe (window-barrier port
	// arbitration); the bus topology always runs one lane. The assembled
	// figures and tables are bit-identical at every worker count >= 1.
	SimWorkers int
	// IdealNetwork removes switch contention (core.Config.IdealNetwork;
	// ablation — no longer a precondition for SimWorkers).
	IdealNetwork bool
	// Topology selects the interconnect model (core.Config.Topology):
	// the paper's Ω network (default), a 2-D mesh, or the bus.
	Topology network.Topology
	// Jitter seeds same-cycle tie-breaking (core.Config.Jitter).
	Jitter uint64
	// Parallelism bounds how many simulations a sweep runs concurrently.
	// Zero means GOMAXPROCS; 1 forces the historic serial order. Each
	// simulation is self-contained (own engine, own RNG), so the assembled
	// figures and tables are bit-identical at any setting — the golden
	// digest test pins this.
	Parallelism int
	// Log, when non-nil, receives progress lines.
	Log io.Writer

	// ctx, when non-nil, cancels in-flight sweeps; see WithContext.
	ctx context.Context
}

// WithContext returns a copy of the options whose sweeps stop early when
// ctx is cancelled: the error-returning entry points (FigureByNumber)
// propagate the context error, and the simulated machine itself aborts
// mid-run, so even a single long simulation honors the deadline.
func (o Options) WithContext(ctx context.Context) Options {
	o.ctx = ctx
	return o
}

func (o Options) context() context.Context {
	if o.ctx != nil {
		return o.ctx
	}
	return context.Background()
}

// DefaultOptions returns the sweep used by the committed experiment runs.
func DefaultOptions() Options {
	return Options{
		Procs:     []int{2, 4, 8, 16, 32, 64},
		Episodes:  8,
		Tasks:     128,
		SpawnProb: 0.2,
		Seed:      42,
		Params:    workload.DefaultParams(),
	}
}

// logMu serializes progress lines: sweep cells run concurrently and share
// the options' writer.
var logMu sync.Mutex

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Figure is one reproduced figure: completion-time series over processor
// count.
type Figure struct {
	Name   string            `json:"name"`
	Title  string            `json:"title"`
	XLabel string            `json:"x_label"`
	Series []*metrics.Series `json:"series"`
}

// Table renders the figure as an aligned text table.
func (f Figure) Table() string {
	return fmt.Sprintf("%s: %s\n%s", f.Name, f.Title, metrics.FormatTable(f.XLabel, f.Series))
}

// CSV renders the figure as CSV.
func (f Figure) CSV() string { return metrics.FormatCSV(f.XLabel, f.Series) }

func (o Options) config(procs int, proto core.Protocol, cons core.Consistency) core.Config {
	cfg := core.DefaultConfig(procs)
	cfg.Protocol = proto
	cfg.Consistency = cons
	cfg.Faults = o.Faults
	cfg.SimWorkers = o.SimWorkers
	cfg.IdealNetwork = o.IdealNetwork
	cfg.Topology = o.Topology
	cfg.Jitter = o.Jitter
	return cfg
}

// runSync runs the sync workload model and returns completion cycles.
func (o Options) runSync(procs int, proto core.Protocol, cons core.Consistency, grain int) (float64, error) {
	p := o.Params
	p.Grain = grain
	cfg := o.config(procs, proto, cons)
	layout := workload.NewLayout(mem.Geometry{BlockWords: cfg.BlockWords, Nodes: procs}, p)
	var kit workload.SyncKit
	if proto == core.ProtoCBL {
		kit = workload.CBLKit(layout, procs)
	} else {
		kit = workload.WBIKit(layout, procs, false)
	}
	progs := workload.SyncModel(procs, o.Episodes, p, layout, kit, o.Seed)
	res, err := workload.RunContext(o.context(), cfg, progs)
	if err != nil {
		// Seed and fault config make the failing cell reproducible from
		// the message alone.
		return 0, fmt.Errorf("harness: sync model %v/%v p=%d seed=%d %s: %w",
			proto, cons, procs, o.Seed, o.Faults, err)
	}
	o.logf("  sync %v %v procs=%d grain=%d: %d cycles, %d msgs", proto, cons, procs, grain, res.Cycles, res.Messages)
	return float64(res.Cycles), nil
}

// runQueue runs the work-queue model and returns completion cycles.
func (o Options) runQueue(procs int, proto core.Protocol, cons core.Consistency, grain int, backoff bool) (float64, error) {
	p := o.Params
	p.Grain = grain
	cfg := o.config(procs, proto, cons)
	layout := workload.NewLayout(mem.Geometry{BlockWords: cfg.BlockWords, Nodes: procs}, p)
	var kit workload.SyncKit
	if proto == core.ProtoCBL {
		kit = workload.CBLKit(layout, procs)
	} else {
		kit = workload.WBIKit(layout, procs, backoff)
	}
	progs, _ := workload.WorkQueue(procs, o.Tasks, o.SpawnProb, p, layout, kit, o.Seed)
	res, err := workload.RunContext(o.context(), cfg, progs)
	if err != nil {
		return 0, fmt.Errorf("harness: work-queue %s p=%d seed=%d %s: %w",
			kit.Name, procs, o.Seed, o.Faults, err)
	}
	o.logf("  queue %s %v procs=%d grain=%d: %d cycles, %d msgs", kit.Name, cons, procs, grain, res.Cycles, res.Messages)
	return float64(res.Cycles), nil
}

// cacheSchemesFigure builds Figures 4 and 5: WBI vs CBL on both workload
// models, without buffered consistency (the paper runs these under SC).
func (o Options) cacheSchemesFigure(name, title string, grain int) (Figure, error) {
	wbiS := &metrics.Series{Name: "WBI"}
	cblS := &metrics.Series{Name: "CBL"}
	qWBI := &metrics.Series{Name: "Q-WBI"}
	qBack := &metrics.Series{Name: "Q-backoff"}
	qCBL := &metrics.Series{Name: "Q-CBL"}
	cells := []struct {
		s       *metrics.Series
		sync    bool
		proto   core.Protocol
		backoff bool
	}{
		{wbiS, true, core.ProtoWBI, false},
		{cblS, true, core.ProtoCBL, false},
		{qWBI, false, core.ProtoWBI, false},
		{qBack, false, core.ProtoWBI, true},
		{qCBL, false, core.ProtoCBL, false},
	}
	// The (procs x cell) grid fans out across the worker pool; every point
	// is an independent simulation. Results land in fixed slots and are
	// assembled serially below, so the series are identical at any
	// parallelism.
	ys := make([]float64, len(o.Procs)*len(cells))
	err := fan.Run(len(ys), o.Parallelism, func(i int) error {
		n, c := o.Procs[i/len(cells)], cells[i%len(cells)]
		var y float64
		var err error
		if c.sync {
			y, err = o.runSync(n, c.proto, core.SC, grain)
		} else {
			y, err = o.runQueue(n, c.proto, core.SC, grain, c.backoff)
		}
		ys[i] = y
		return err
	})
	if err != nil {
		return Figure{}, err
	}
	for i, y := range ys {
		cells[i%len(cells)].s.Add(float64(o.Procs[i/len(cells)]), y)
	}
	return Figure{
		Name:   name,
		Title:  title,
		XLabel: "procs",
		Series: []*metrics.Series{wbiS, cblS, qWBI, qBack, qCBL},
	}, nil
}

// mustFigure preserves the historic panic-on-failure behaviour of the
// FigureN entry points, which predate the error-returning API.
func mustFigure(f Figure, err error) Figure {
	if err != nil {
		panic(err)
	}
	return f
}

// Figure4 reproduces Figure 4: cache schemes at medium granularity.
func (o Options) Figure4() Figure { return mustFigure(o.figure4()) }

func (o Options) figure4() (Figure, error) {
	return o.cacheSchemesFigure("Figure 4",
		"completion time of cache schemes, medium-granularity parallelism",
		workload.MediumGrain)
}

// Figure5 reproduces Figure 5: cache schemes at coarse granularity.
func (o Options) Figure5() Figure { return mustFigure(o.figure5()) }

func (o Options) figure5() (Figure, error) {
	return o.cacheSchemesFigure("Figure 5",
		"completion time of cache schemes, coarse-granularity parallelism",
		workload.CoarseGrain)
}

// consistencyFigure builds Figures 6 and 7: BC-CBL vs SC-CBL on the
// work-queue model.
func (o Options) consistencyFigure(name, title string, grain int) (Figure, error) {
	sc := &metrics.Series{Name: "SC-CBL"}
	bc := &metrics.Series{Name: "BC-CBL"}
	models := []core.Consistency{core.SC, core.BC}
	ys := make([]float64, len(o.Procs)*len(models))
	err := fan.Run(len(ys), o.Parallelism, func(i int) error {
		n, cons := o.Procs[i/len(models)], models[i%len(models)]
		y, err := o.runQueue(n, core.ProtoCBL, cons, grain, false)
		ys[i] = y
		return err
	})
	if err != nil {
		return Figure{}, err
	}
	for i, y := range ys {
		s := sc
		if i%len(models) == 1 {
			s = bc
		}
		s.Add(float64(o.Procs[i/len(models)]), y)
	}
	return Figure{Name: name, Title: title, XLabel: "procs",
		Series: []*metrics.Series{sc, bc}}, nil
}

// Figure6 reproduces Figure 6: buffered vs sequential consistency at fine
// granularity.
func (o Options) Figure6() Figure { return mustFigure(o.figure6()) }

func (o Options) figure6() (Figure, error) {
	return o.consistencyFigure("Figure 6",
		"buffered vs sequential consistency, fine-granularity parallelism",
		workload.FineGrain)
}

// Figure7 reproduces Figure 7: buffered vs sequential consistency at
// medium granularity.
func (o Options) Figure7() Figure { return mustFigure(o.figure7()) }

func (o Options) figure7() (Figure, error) {
	return o.consistencyFigure("Figure 7",
		"buffered vs sequential consistency, medium-granularity parallelism",
		workload.MediumGrain)
}

// Figures runs every figure.
func (o Options) Figures() []Figure {
	return []Figure{o.Figure4(), o.Figure5(), o.Figure6(), o.Figure7()}
}

// UtilizationFigure is an extension beyond the paper: mean processor
// utilization (useful-computation fraction) against processor count on the
// work-queue model, for the same five configurations as Figure 4. The
// paper remarks that utilization can mislead — "synchronization activities
// may keep the processor busy without performing any useful computation"
// (§5.2) — and this figure quantifies it: the WBI spin-lock machines burn
// cycles re-reading the lock word, which our accounting splits out as
// stall, not useful work.
func (o Options) UtilizationFigure(grain int) Figure {
	type cfgRow struct {
		name    string
		proto   core.Protocol
		backoff bool
	}
	rows := []cfgRow{
		{"Q-CBL", core.ProtoCBL, false},
		{"Q-WBI", core.ProtoWBI, false},
		{"Q-backoff", core.ProtoWBI, true},
	}
	ys := make([]float64, len(rows)*len(o.Procs))
	fan.Run(len(ys), o.Parallelism, func(i int) error {
		rw, n := rows[i/len(o.Procs)], o.Procs[i%len(o.Procs)]
		p := o.Params
		p.Grain = grain
		cfg := o.config(n, rw.proto, core.SC)
		layout := workload.NewLayout(mem.Geometry{BlockWords: cfg.BlockWords, Nodes: n}, p)
		var kit workload.SyncKit
		if rw.proto == core.ProtoCBL {
			kit = workload.CBLKit(layout, n)
		} else {
			kit = workload.WBIKit(layout, n, rw.backoff)
		}
		progs, _ := workload.WorkQueue(n, o.Tasks, o.SpawnProb, p, layout, kit, o.Seed)
		res, err := workload.RunContext(o.context(), cfg, progs)
		if err != nil {
			panic(fmt.Sprintf("harness: utilization %s p=%d: %v", rw.name, n, err))
		}
		ys[i] = 100 * res.MeanUtilization
		o.logf("  util %s procs=%d: %.1f%%", rw.name, n, ys[i])
		return nil
	})
	var series []*metrics.Series
	for ri, rw := range rows {
		s := &metrics.Series{Name: rw.name}
		for ni, n := range o.Procs {
			s.Add(float64(n), ys[ri*len(o.Procs)+ni])
		}
		series = append(series, s)
	}
	return Figure{
		Name:   "Utilization",
		Title:  "mean processor utilization (%), work-queue model (extension)",
		XLabel: "procs",
		Series: series,
	}
}

// FigureByNumber runs one figure (4-7). A simulation failure — including
// cancellation of a context installed with WithContext — is returned, not
// panicked.
func (o Options) FigureByNumber(n int) (Figure, error) {
	switch n {
	case 4:
		return o.figure4()
	case 5:
		return o.figure5()
	case 6:
		return o.figure6()
	case 7:
		return o.figure7()
	}
	return Figure{}, fmt.Errorf("harness: no figure %d (the paper has Figures 4-7)", n)
}
