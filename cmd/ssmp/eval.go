package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"ssmp/internal/analytic"
	"ssmp/internal/harness"
	"ssmp/internal/plot"
)

// sweepFlags registers the figure-sweep flags figures and report share,
// with procs as the default sweep. The returned func builds the harness
// options once fs is parsed.
func (c *cli) sweepFlags(fs *flag.FlagSet, procs string) func() (harness.Options, error) {
	procsFlag := fs.String("procs", procs, "processor sweep")
	tasks := fs.Int("tasks", 128, "work-queue tasks")
	episodes := fs.Int("episodes", 8, "sync-model episodes")
	seed := fs.Uint64("seed", 42, "workload seed")
	verbose := fs.Bool("v", false, "log each run to stderr")
	return func() (harness.Options, error) {
		opt := harness.DefaultOptions()
		opt.Tasks, opt.Episodes, opt.Seed = *tasks, *episodes, *seed
		var err error
		if opt.Procs, err = parseProcs(*procsFlag); err != nil {
			return opt, err
		}
		if *verbose {
			opt.Log = c.log
		}
		return opt, nil
	}
}

// tables regenerates the paper's analytical tables, Table 2 (linear-solver
// traffic under read-update against invalidation) and Table 3
// (synchronization scenario costs under WBI against CBL), and with -sim
// measures them on the simulator.
func (c *cli) tables(args []string) error {
	fs := c.flags("tables")
	n := fs.Int("n", 16, "processor count")
	b := fs.Int("b", 4, "cache line size in words (Table 2)")
	sim := fs.Bool("sim", false, "also measure the scenarios on the simulator")
	iters := fs.Int("iters", 20, "solver iterations for -sim Table 2")
	fs.Parse(args)
	// Without -sim no machine is built, so any n has analytic tables.
	if err := checkProcs(*n); err != nil && *sim {
		return err
	}

	fmt.Fprintln(c.out, analytic.FormatTable2(*n, *b, analytic.DefaultClassCosts()))
	fmt.Fprintln(c.out, analytic.FormatTable3(analytic.DefaultSyncParams(*n)))
	if !*sim {
		fmt.Fprintln(c.out, "(run with -sim to cross-check against the simulator)")
		return nil
	}
	opt := harness.DefaultOptions()
	opt.Log = c.log
	t2, err := opt.Table2Sim(*n, *iters)
	if err != nil {
		return err
	}
	fmt.Fprintln(c.out, harness.FormatTable2Sim(*n, *iters, t2))
	t3, err := opt.Table3Sim(*n)
	if err != nil {
		return err
	}
	fmt.Fprintln(c.out, harness.FormatTable3Sim(*n, t3))
	fmt.Fprint(c.out, `Notes: simulated WBI costs differ from the paper's closed-form model in
absolute terms (our baseline caches the lock line exclusively, so the
serial case is cheap); the claims that reproduce are the asymptotics —
CBL's O(n) parallel-lock traffic against WBI's superlinear growth, and
the constant 2-message CBL barrier request.
`)
	return nil
}

// figures regenerates the paper's simulation figures: completion time
// against processor count for the cache-scheme comparison (Figures 4-5)
// and for buffered against sequential consistency (Figures 6-7), as an
// aligned text table per figure and optionally CSV files and SVG charts.
func (c *cli) figures(args []string) error {
	fs := c.flags("figures")
	fig := fs.Int("fig", 0, "figure number 4-7 (0 = all)")
	util := fs.Bool("util", false, "also produce the utilization extension figure")
	csvDir := fs.String("csv", "", "directory to write CSV files into")
	svgDir := fs.String("svg", "", "directory to write SVG charts into")
	logY := fs.Bool("logy", false, "logarithmic Y axis for the SVG charts")
	options := c.sweepFlags(fs, "2,4,8,16,32,64")
	fs.Parse(args)
	opt, err := options()
	if err != nil {
		return err
	}

	nums := []int{4, 5, 6, 7}
	if *fig != 0 {
		nums = []int{*fig}
	}
	figures, err := runFigures(opt, nums...)
	if err != nil {
		return err
	}
	if *util {
		f, err := opt.UtilizationFigure(128)
		if err != nil {
			return err
		}
		figures = append(figures, f)
	}

	// write puts one figure file into dir and reports its path.
	write := func(dir, name, data string) error {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "wrote %s\n\n", path)
		return nil
	}
	for _, f := range figures {
		fmt.Fprintln(c.out, f.Table())
		base := strings.ToLower(strings.ReplaceAll(f.Name, " ", ""))
		if *csvDir != "" {
			if err := write(*csvDir, base+".csv", f.CSV()); err != nil {
				return err
			}
		}
		if *svgDir != "" {
			yLabel, logY := "completion time (cycles)", *logY
			if f.Name == "Utilization" {
				yLabel, logY = "mean utilization (%)", false
			}
			svg := plot.SVG(plot.Options{
				Title: f.Name + ": " + f.Title, XLabel: f.XLabel,
				YLabel: yLabel, LogX: true, LogY: logY,
			}, f.Series)
			if err := write(*svgDir, base+".svg", svg); err != nil {
				return err
			}
		}
	}
	return nil
}

// report regenerates the complete evaluation in one run as a Markdown
// report: the analytical Tables 2 and 3, their simulated cross-checks and
// Figures 4-7, with the paper's shape claims checked programmatically.
func (c *cli) report(args []string) error {
	fs := c.flags("report")
	tableN := fs.Int("table-n", 16, "processor count for the tables")
	options := c.sweepFlags(fs, "2,4,8,16,32")
	fs.Parse(args)
	opt, err := options()
	if err != nil {
		return err
	}
	n := *tableN
	if err := checkProcs(n); err != nil {
		return err
	}
	block := func(s string) { fmt.Fprintf(c.out, "```\n%s```\n\n", s) }

	fmt.Fprintf(c.out, "# ssmp evaluation report\n\n"+
		"Sweep: procs=%v, tables at n=%d, %d tasks, %d episodes, seed %d.\n"+
		"All runs are deterministic; rerunning this command reproduces every number.\n\n"+
		"## Analytical models\n\n", opt.Procs, n, opt.Tasks, opt.Episodes, opt.Seed)
	block(analytic.FormatTable2(n, 4, analytic.DefaultClassCosts()))
	block(analytic.FormatTable3(analytic.DefaultSyncParams(n)))

	fmt.Fprint(c.out, "## Simulated cross-checks\n\n")
	t2, err := opt.Table2Sim(n, 20)
	if err != nil {
		return err
	}
	block(harness.FormatTable2Sim(n, 20, t2))
	t3, err := opt.Table3Sim(n)
	if err != nil {
		return err
	}
	block(harness.FormatTable3Sim(n, t3))
	checkTable3(c.out, t3, n)

	figs, err := runFigures(opt, 4, 5, 6, 7)
	if err != nil {
		return err
	}
	fmt.Fprint(c.out, "\n## Figures\n")
	for _, f := range figs {
		fmt.Fprintf(c.out, "\n### %s\n\n```\n%s```\n", f.Name, f.Table())
	}
	fmt.Fprintln(c.out)
	checkFigures(c.out, opt.Procs, figs[0], figs[2])
	return nil
}

// runFigures runs the paper's figures nums names, in order.
func runFigures(opt harness.Options, nums ...int) ([]harness.Figure, error) {
	figs := make([]harness.Figure, len(nums))
	for i, n := range nums {
		var err error
		if figs[i], err = opt.FigureByNumber(n); err != nil {
			return nil, err
		}
	}
	return figs, nil
}

// claim prints one shape claim's verdict as a Markdown list item.
func claim(w io.Writer, name string, ok bool) {
	mark := "PASS"
	if !ok {
		mark = "FAIL"
	}
	fmt.Fprintf(w, "- %s: **%s**\n", name, mark)
}

// checkTable3 prints the verdicts of the Table 3 shape claims.
func checkTable3(w io.Writer, rows []harness.Table3Measured, n int) {
	get := func(s analytic.Scenario, scheme string) harness.Table3Measured {
		for _, r := range rows {
			if r.Scenario == s && r.Scheme == scheme {
				return r
			}
		}
		panic(fmt.Sprintf("report: Table 3 has no %s/%s row", s, scheme))
	}
	claim(w, "CBL serial lock is exactly 3 messages",
		get(analytic.SerialLock, "CBL").Messages == 3)
	claim(w, fmt.Sprintf("CBL parallel lock is O(n): <= 6n = %d messages", 6*n),
		get(analytic.ParallelLock, "CBL").Messages <= uint64(6*n))
	claim(w, "WBI parallel lock costs more than CBL (messages)",
		get(analytic.ParallelLock, "WBI").Messages > get(analytic.ParallelLock, "CBL").Messages)
	claim(w, "WBI parallel lock costs more than CBL (time)",
		get(analytic.ParallelLock, "WBI").Cycles > get(analytic.ParallelLock, "CBL").Cycles)
	claim(w, "CBL barrier request is exactly 2 messages per processor",
		get(analytic.BarrierRequest, "CBL").Messages == 2)
	claim(w, "CBL barrier beats the software barrier (messages)",
		get(analytic.BarrierNotify, "CBL").Messages < get(analytic.BarrierNotify, "WBI").Messages)
}

// checkFigures prints the verdicts of the shape claims on Figures 4 and 6
// at the sweep's largest processor count.
func checkFigures(w io.Writer, procs []int, f4, f6 harness.Figure) {
	nMax := float64(procs[len(procs)-1])
	y := func(f harness.Figure, name string, x float64) float64 {
		for _, s := range f.Series {
			if s.Name == name {
				if v, ok := s.Y(x); ok {
					return v
				}
			}
		}
		panic(fmt.Sprintf("report: %s has no %s point at %g", f.Name, name, x))
	}
	fmt.Fprint(w, "## Shape claims (largest sweep point)\n\n")
	claim(w, "Figure 4: Q-CBL beats Q-WBI under contention",
		y(f4, "Q-CBL", nMax) < y(f4, "Q-WBI", nMax))
	claim(w, "Figure 4: backoff helps WBI but does not beat CBL",
		y(f4, "Q-backoff", nMax) < y(f4, "Q-WBI", nMax) &&
			y(f4, "Q-CBL", nMax) < y(f4, "Q-backoff", nMax))
	claim(w, "Figure 4: sync-model CBL <= sync-model WBI",
		y(f4, "CBL", nMax) <= y(f4, "WBI", nMax))
	bcWins := true
	for _, p := range procs {
		if y(f6, "BC-CBL", float64(p)) > y(f6, "SC-CBL", float64(p)) {
			bcWins = false
		}
	}
	claim(w, "Figures 6-7: buffered consistency never loses to SC", bcWins)
}
