package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ssmp/internal/bccheck"
	"ssmp/internal/litmus"
	"ssmp/internal/sim"
)

const litmusUsage = `usage:
  ssmp litmus list                              list the embedded corpus
  ssmp litmus run [-seeds N] [-v] [-por on|off] [-sym on|off] [name ...]
                                                cross-validate tests (default: all)
  ssmp litmus run -faults [-drop P] [-dup P] [-delay P] [-delay-max N] [name ...]
                                                chaos sweep: same check under fault injection
  ssmp litmus show name                         print a corpus test's JSON
  ssmp litmus explain [-seeds N] name outcome   show the execution graph of a run producing outcome
  ssmp litmus fuzz [-budget D | -n N] [-rng S] [-seeds N] [-por on|off] [-sym on|off]
                                                fuzz random programs against the model
  ssmp litmus farm [-budget D | -n N] [-rng S] [-seeds N] [-farm-workers N] [-out DIR] [-report]
                                                grow a deduplicated axiom-tagged corpus`

// litmus runs litmus tests against the machine's buffered consistency
// model: each test is enumerated axiomatically (internal/bccheck) and swept
// through the operational simulator under schedule jitter, and every
// observed outcome must be axiomatically allowed.
func (c *cli) litmus(args []string) error {
	return subcommand(args, litmusUsage, map[string]func([]string) error{
		"list": c.litmusList, "run": c.litmusRun, "show": c.litmusShow,
		"explain": c.litmusExplain, "fuzz": c.litmusFuzz, "farm": c.litmusFarm,
	})
}

// tuningFlags registers the exploration-engine knobs shared by run, fuzz
// and farm.
func tuningFlags(fs *flag.FlagSet) func() (bccheck.Tuning, error) {
	por := fs.String("por", "on", "partial-order reduction: on or off")
	sym := fs.String("sym", "on", "symmetry reduction: on or off")
	return func() (bccheck.Tuning, error) {
		for _, f := range []struct{ name, v string }{{"por", *por}, {"sym", *sym}} {
			if f.v != "on" && f.v != "off" {
				return bccheck.Tuning{}, fmt.Errorf("-%s must be on or off, got %q", f.name, f.v)
			}
		}
		return bccheck.Tuning{DisablePOR: *por == "off", DisableSymmetry: *sym == "off"}, nil
	}
}

// logf returns a printf-style logger onto the cli's log stream.
func (c *cli) logf(format string, a ...any) { fmt.Fprintf(c.log, format+"\n", a...) }

// reproducer prints the minimized test of a fuzz or farm failure.
func reproducer(w io.Writer, f *litmus.FuzzFailure) error {
	fmt.Fprintln(w, "\ncross-validation VIOLATION — simulator escaped the axiomatic allowed set")
	fmt.Fprintln(w, "minimized reproducer:")
	return writeJSON(w, f.Shrunk)
}

func (c *cli) litmusList([]string) error {
	tests, err := litmus.Corpus()
	if err != nil {
		return err
	}
	for _, t := range tests {
		fmt.Fprintf(c.out, "%-14s %d procs  %s\n", t.Name, len(t.Procs), t.Doc)
	}
	gen, err := litmus.Generated()
	if err != nil {
		return err
	}
	if len(gen) > 0 {
		fmt.Fprintf(c.out, "plus %d farm-generated tests (ssmp litmus show g... to inspect)\n", len(gen))
	}
	return nil
}

func (c *cli) litmusRun(args []string) error {
	fs := c.flags("litmus run")
	seeds := fs.Int("seeds", 64, "jitter seeds to sweep per test")
	verbose := fs.Bool("v", false, "print each test's allowed and observed outcomes")
	faults := fs.Bool("faults", false, "inject interconnect faults (chaos sweep); seeds double as fault seeds")
	rates := faultFlags(fs)
	delayMax := fs.Int("delay-max", 0, "max injected delay in cycles (0 = default, with -faults)")
	tuning := tuningFlags(fs)
	fs.Parse(args)
	tune, err := tuning()
	if err != nil {
		return err
	}
	chaos := litmus.ChaosConfig{Rates: *rates, DelayMax: sim.Time(*delayMax)}

	var tests []*litmus.Test
	if fs.NArg() == 0 {
		if tests, err = litmus.Corpus(); err != nil {
			return err
		}
	}
	for _, name := range fs.Args() {
		t, err := litmus.Load(name)
		if err != nil {
			return err
		}
		tests = append(tests, t)
	}

	failures := 0
	for _, t := range tests {
		var rep *litmus.Report
		if *faults {
			rep, err = litmus.RunChaos(t, litmus.ChaosSeeds(*seeds), chaos)
		} else {
			rep, err = litmus.RunTuned(t, litmus.Seeds(*seeds), tune)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", t.Name, err)
		}
		fmt.Fprintln(c.out, rep.Summary())
		if *verbose {
			for _, a := range rep.Allowed {
				mark := " "
				if _, ok := rep.Observed[a]; ok {
					mark = "*"
				}
				fmt.Fprintf(c.out, "  %s allowed %q\n", mark, a)
			}
		}
		if rep.Ok() {
			continue
		}
		failures++
		for _, v := range rep.Violations {
			msg, err := litmus.ExplainViolation(t, rep, v)
			if err != nil {
				return err
			}
			fmt.Fprint(c.out, msg)
		}
		for _, f := range rep.AssertFailures {
			fmt.Fprintf(c.out, "  assert: %s\n", f)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d tests failed", failures, len(tests))
	}
	return nil
}

func (c *cli) litmusShow(args []string) error {
	if len(args) != 1 {
		return errors.New("show takes exactly one test name")
	}
	t, err := litmus.Load(args[0])
	if err != nil {
		return err
	}
	return writeJSON(c.out, t)
}

func (c *cli) litmusExplain(args []string) error {
	fs := c.flags("litmus explain")
	seeds := fs.Int("seeds", 64, "jitter seeds to sweep")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return errors.New("explain takes a test name and an outcome string")
	}
	t, err := litmus.Load(fs.Arg(0))
	if err != nil {
		return err
	}
	rep, err := litmus.Run(t, litmus.Seeds(*seeds))
	if err != nil {
		return err
	}
	msg, err := litmus.ExplainViolation(t, rep, fs.Arg(1))
	if err != nil {
		observed := ""
		for o, seeds := range rep.Observed {
			observed += fmt.Sprintf("  %q (%d seeds)\n", o, len(seeds))
		}
		return fmt.Errorf("%w\nobserved outcomes:\n%s", err, observed)
	}
	fmt.Fprint(c.out, msg)
	return nil
}

func (c *cli) litmusFuzz(args []string) error {
	fs := c.flags("litmus fuzz")
	budget := fs.Duration("budget", 0, "wall-clock budget (overrides -n)")
	count := fs.Int("n", 100, "candidate count when no budget is set")
	rng := fs.Uint64("rng", 1, "generator seed")
	seeds := fs.Int("seeds", 16, "jitter seeds per candidate")
	tuning := tuningFlags(fs)
	fs.Parse(args)
	tune, err := tuning()
	if err != nil {
		return err
	}

	// SIGINT/SIGTERM stop the run cleanly between candidates; stats for
	// the work done so far still print.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	st, err := litmus.Fuzz(ctx, litmus.FuzzOptions{
		Rng: *rng, Seeds: litmus.Seeds(*seeds), Budget: *budget, Count: *count,
		Tuning: tune, Log: c.logf,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(c.out, "fuzz: %d candidates tested, %d skipped at the state limit, %s elapsed (%s)\n",
		st.Tested, st.Skipped, st.Elapsed.Round(time.Millisecond), st.Rates())
	if st.Failure == nil {
		return nil
	}
	if err := reproducer(c.out, st.Failure); err != nil {
		return err
	}
	for _, v := range st.Failure.ShrunkReport.Violations {
		msg, err := litmus.ExplainViolation(st.Failure.Shrunk, st.Failure.ShrunkReport, v)
		if err != nil {
			return err
		}
		fmt.Fprint(c.out, msg)
	}
	return errors.New("fuzzing found a violation")
}

func (c *cli) litmusFarm(args []string) error {
	fs := c.flags("litmus farm")
	budget := fs.Duration("budget", 0, "wall-clock budget (overrides -n)")
	count := fs.Int("n", 4000, "candidate count when no budget is set")
	rng := fs.Uint64("rng", 1, "campaign seed")
	seeds := fs.Int("seeds", 16, "jitter seeds per candidate")
	farmWorkers := fs.Int("farm-workers", 8, "concurrent candidate pipelines")
	out := fs.String("out", "", "directory to (re)write the generated corpus into")
	report := fs.Bool("report", false, "print the axiom-coverage report over hand-written + accepted tests")
	tuning := tuningFlags(fs)
	fs.Parse(args)
	tune, err := tuning()
	if err != nil {
		return err
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	st, tests, err := litmus.Farm(ctx, litmus.FarmOptions{
		Rng: *rng, Count: *count, Budget: *budget, Workers: *farmWorkers,
		Seeds: litmus.Seeds(*seeds), Tuning: tune, Log: c.logf,
	})
	if err != nil {
		return err
	}
	if st.Failure != nil {
		if err := reproducer(c.out, st.Failure); err != nil {
			return err
		}
		return errors.New("farm found a violation")
	}
	fmt.Fprintln(c.out, st.Summary())
	if *report {
		if err := coverageReport(c.out, tests); err != nil {
			return err
		}
	}
	if *out != "" {
		if err := litmus.WriteGeneratedCorpus(*out, tests); err != nil {
			return err
		}
		fmt.Fprintf(c.out, "wrote %d tests to %s\n", len(tests), *out)
	}
	return nil
}

// coverageReport prints the per-axiom coverage table over the hand-written
// corpus (vectors recomputed) plus the given generated tests (stored tags).
func coverageReport(w io.Writer, gen []*litmus.Test) error {
	corpus, err := litmus.Corpus()
	if err != nil {
		return err
	}
	counts := map[string]int{}
	for _, t := range corpus {
		cov, err := litmus.CoverageVector(t)
		if err != nil {
			return err
		}
		for _, ax := range cov {
			counts[ax]++
		}
	}
	for _, t := range gen {
		for _, ax := range t.Coverage {
			counts[ax]++
		}
	}
	fmt.Fprintf(w, "axiom coverage over %d hand-written + %d generated tests:\n", len(corpus), len(gen))
	missing := 0
	for _, ax := range litmus.Axioms {
		mark := "ok"
		if counts[ax] == 0 {
			mark = "MISSING"
			missing++
		}
		fmt.Fprintf(w, "  %-10s %4d tests  %s\n", ax, counts[ax], mark)
	}
	if missing > 0 {
		return fmt.Errorf("%d axiom families have no covering test", missing)
	}
	return nil
}
