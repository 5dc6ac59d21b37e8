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
//
// Every figure, the paper's and the extensions', is one grid of
// independent simulations, a cell per (series, processor count) pair, and
// every sync- or work-queue-model run is built by workload.Job.
package harness

import (
	"context"
	"fmt"
	"io"
	"sync"

	"ssmp/internal/core"
	"ssmp/internal/fan"
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
	// SimWorkers sets each simulated machine's PDES lanes
	// (core.Config.SimWorkers): 0 is a serial run, the kernel's one-lane
	// case; any value >= 1 runs one lane per node under the time-windowed
	// loop, every lane on the caller's goroutine. Contended Ω and mesh
	// networks are lane-safe (window-barrier port arbitration); the bus
	// topology always runs one lane. The assembled figures and tables are
	// bit-identical at every value >= 1.
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
// ctx is cancelled: every figure and table returns the context error, and
// the simulated machine itself aborts mid-run, so even a single long
// simulation honors the deadline.
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

// grid runs one cell per (processor count, row) pair and builds k series
// per row from the k values each cell returns: the result's j-th entry
// holds every row's series of value j, in row order. The cells fan out
// across the worker pool; each is an independent simulation whose values
// land in a fixed slot, and the series are built serially in slot order,
// so they are identical at any parallelism.
func (o Options) grid(rows []string, k int, cell func(row, procs int) ([]float64, error)) ([][]*metrics.Series, error) {
	ys := make([][]float64, len(o.Procs)*len(rows))
	err := fan.Run(len(ys), o.Parallelism, func(i int) error {
		var err error
		ys[i], err = cell(i%len(rows), o.Procs[i/len(rows)])
		return err
	})
	if err != nil {
		return nil, err
	}
	series := make([][]*metrics.Series, k)
	for j := range series {
		series[j] = make([]*metrics.Series, len(rows))
		for r, name := range rows {
			series[j][r] = &metrics.Series{Name: name}
		}
	}
	for i, y := range ys {
		for j := range series {
			series[j][i%len(rows)].Add(float64(o.Procs[i/len(rows)]), y[j])
		}
	}
	return series, nil
}

// model is one series of a model figure: the sync or work-queue model on
// one machine.
type model struct {
	name    string
	queue   bool // the work-queue model; otherwise the sync model
	proto   core.Protocol
	cons    core.Consistency
	backoff bool // WBI: exponential backoff on locks
}

var (
	// cacheSchemes are Figures 4 and 5: WBI against CBL on both workload
	// models, under sequential consistency as in the paper.
	cacheSchemes = []model{
		{"WBI", false, core.ProtoWBI, core.SC, false},
		{"CBL", false, core.ProtoCBL, core.SC, false},
		{"Q-WBI", true, core.ProtoWBI, core.SC, false},
		{"Q-backoff", true, core.ProtoWBI, core.SC, true},
		{"Q-CBL", true, core.ProtoCBL, core.SC, false},
	}
	// consistencyModels are Figures 6 and 7: sequential against buffered
	// consistency on the CBL machine's work queue.
	consistencyModels = []model{
		{"SC-CBL", true, core.ProtoCBL, core.SC, false},
		{"BC-CBL", true, core.ProtoCBL, core.BC, false},
	}
	// utilizationModels are the utilization figure: Figure 4's work-queue
	// series.
	utilizationModels = []model{
		{"Q-CBL", true, core.ProtoCBL, core.SC, false},
		{"Q-WBI", true, core.ProtoWBI, core.SC, false},
		{"Q-backoff", true, core.ProtoWBI, core.SC, true},
	}
)

// paperFigures are Figures 4-7, in order.
var paperFigures = []struct {
	title string
	grain int
	rows  []model
}{
	{"completion time of cache schemes, medium-granularity parallelism", workload.MediumGrain, cacheSchemes},
	{"completion time of cache schemes, coarse-granularity parallelism", workload.CoarseGrain, cacheSchemes},
	{"buffered vs sequential consistency, fine-granularity parallelism", workload.FineGrain, consistencyModels},
	{"buffered vs sequential consistency, medium-granularity parallelism", workload.MediumGrain, consistencyModels},
}

// modelFigure plots y of every row's run at grain against processor count.
func (o Options) modelFigure(name, title string, grain int, rows []model, y func(core.Result) float64) (Figure, error) {
	names := make([]string, len(rows))
	for i, m := range rows {
		names[i] = m.name
	}
	series, err := o.grid(names, 1, func(row, procs int) ([]float64, error) {
		res, err := o.run(rows[row], procs, grain)
		return []float64{y(res)}, err
	})
	if err != nil {
		return Figure{}, err
	}
	return Figure{Name: name, Title: title, XLabel: "procs", Series: series[0]}, nil
}

// run runs m's workload model at grain on a procs-node machine.
func (o Options) run(m model, procs, grain int) (core.Result, error) {
	cfg := core.DefaultConfig(procs)
	cfg.Protocol = m.proto
	cfg.Consistency = m.cons
	cfg.Faults = o.Faults
	cfg.SimWorkers = o.SimWorkers
	cfg.IdealNetwork = o.IdealNetwork
	cfg.Topology = o.Topology
	cfg.Jitter = o.Jitter
	job := workload.Job{Queue: m.queue, Params: o.Params, Episodes: o.Episodes,
		Tasks: o.Tasks, SpawnProb: o.SpawnProb, Backoff: m.backoff, Seed: o.Seed}
	job.Params.Grain = grain
	progs, kit := job.Programs(cfg)
	kind := "sync"
	if m.queue {
		kind = "queue"
	}
	res, err := workload.RunContext(o.context(), cfg, progs)
	if err != nil {
		// Seed and fault config make the failing cell reproducible from
		// the message alone.
		return res, fmt.Errorf("harness: %s %s/%v p=%d seed=%d %s: %w",
			kind, kit.Name, m.cons, procs, o.Seed, o.Faults, err)
	}
	o.logf("  %s %s %v procs=%d grain=%d: %d cycles, %d msgs", kind, kit.Name, m.cons, procs, grain, res.Cycles, res.Messages)
	return res, nil
}

// FigureByNumber runs one of the paper's Figures 4-7. A simulation failure
// — including cancellation of a context installed with WithContext — is
// returned, not panicked.
func (o Options) FigureByNumber(n int) (Figure, error) {
	if n < 4 || n > 7 {
		return Figure{}, fmt.Errorf("harness: no figure %d (the paper has Figures 4-7)", n)
	}
	f := paperFigures[n-4]
	return o.modelFigure(fmt.Sprintf("Figure %d", n), f.title, f.grain, f.rows,
		func(r core.Result) float64 { return float64(r.Cycles) })
}

// UtilizationFigure is an extension beyond the paper: mean processor
// utilization (useful-computation fraction) against processor count on the
// work-queue model, for Figure 4's work-queue configurations. The paper
// remarks that utilization can mislead — "synchronization activities may
// keep the processor busy without performing any useful computation"
// (§5.2) — and this figure quantifies it: the WBI spin-lock machines burn
// cycles re-reading the lock word, which our accounting splits out as
// stall, not useful work.
func (o Options) UtilizationFigure(grain int) (Figure, error) {
	return o.modelFigure("Utilization", "mean processor utilization (%), work-queue model (extension)",
		grain, utilizationModels, func(r core.Result) float64 { return 100 * r.MeanUtilization })
}
