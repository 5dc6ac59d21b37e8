// Command ssmplitmus runs litmus tests against the machine's buffered
// consistency model: each test is enumerated axiomatically
// (internal/bccheck) and swept through the operational simulator under
// schedule jitter, and every observed outcome must be axiomatically
// allowed.
//
// Usage:
//
//	ssmplitmus list
//	ssmplitmus run [-seeds 64] [-v] [name ...]
//	ssmplitmus run -faults [-drop 0.03] [-dup 0.03] [-delay 0.1] [-delay-max 16] [name ...]
//	ssmplitmus show name
//	ssmplitmus explain [-seeds 64] name outcome
//	ssmplitmus fuzz [-budget 30s | -n 100] [-rng 1] [-seeds 16]
//	ssmplitmus farm [-budget 2m | -n 4000] [-rng 1] [-out dir] [-report]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ssmp/internal/bccheck"
	"ssmp/internal/litmus"
	"ssmp/internal/network"
	"ssmp/internal/sim"
)

// tuningFlags registers the exploration-engine knobs shared by run,
// explain, and fuzz.
func tuningFlags(fs *flag.FlagSet) func() (bccheck.Tuning, error) {
	por := fs.String("por", "on", "partial-order reduction: on or off")
	sym := fs.String("sym", "on", "symmetry reduction: on or off")
	return func() (bccheck.Tuning, error) {
		switch *por {
		case "on", "off":
		default:
			return bccheck.Tuning{}, fmt.Errorf("-por must be on or off, got %q", *por)
		}
		switch *sym {
		case "on", "off":
		default:
			return bccheck.Tuning{}, fmt.Errorf("-sym must be on or off, got %q", *sym)
		}
		return bccheck.Tuning{DisablePOR: *por == "off", DisableSymmetry: *sym == "off"}, nil
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "run":
		err = cmdRun(os.Args[2:])
	case "show":
		err = cmdShow(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "fuzz":
		err = cmdFuzz(os.Args[2:])
	case "farm":
		err = cmdFarm(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "ssmplitmus: unknown subcommand %q\n", os.Args[1])
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssmplitmus: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  ssmplitmus list                              list the embedded corpus
  ssmplitmus run [-seeds N] [-v] [-por on|off] [-sym on|off] [name ...]
                                               cross-validate tests (default: all)
  ssmplitmus run -faults [-drop P] [-dup P] [-delay P] [-delay-max N] [name ...]
                                               chaos sweep: same check under fault injection
  ssmplitmus show name                         print a corpus test's JSON
  ssmplitmus explain [-seeds N] name outcome   show the execution graph of a run producing outcome
  ssmplitmus fuzz [-budget D | -n N] [-rng S] [-seeds N] [-por on|off] [-sym on|off]
                                               fuzz random programs against the model
  ssmplitmus farm [-budget D | -n N] [-rng S] [-seeds N] [-farm-workers N] [-out DIR] [-report]
                                               grow a deduplicated axiom-tagged corpus`)
	os.Exit(2)
}

func cmdList() error {
	tests, err := litmus.Corpus()
	if err != nil {
		return err
	}
	for _, t := range tests {
		fmt.Printf("%-14s %d procs  %s\n", t.Name, len(t.Procs), t.Doc)
	}
	gen, err := litmus.Generated()
	if err != nil {
		return err
	}
	if len(gen) > 0 {
		fmt.Printf("plus %d farm-generated tests (ssmplitmus show g... to inspect)\n", len(gen))
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	seeds := fs.Int("seeds", 64, "jitter seeds to sweep per test")
	verbose := fs.Bool("v", false, "print each test's allowed and observed outcomes")
	defRates := litmus.DefaultChaosRates()
	faults := fs.Bool("faults", false, "inject interconnect faults (chaos sweep); seeds double as fault seeds")
	drop := fs.Float64("drop", defRates.Drop, "per-message drop probability (with -faults)")
	dup := fs.Float64("dup", defRates.Dup, "per-message duplicate probability (with -faults)")
	delay := fs.Float64("delay", defRates.Delay, "per-message delay probability (with -faults)")
	delayMax := fs.Int("delay-max", 0, "max injected delay in cycles (0 = default, with -faults)")
	tuning := tuningFlags(fs)
	_ = fs.Parse(args)
	tune, err := tuning()
	if err != nil {
		return err
	}
	chaos := litmus.ChaosConfig{
		Rates:    network.FaultRates{Drop: *drop, Dup: *dup, Delay: *delay},
		DelayMax: sim.Time(*delayMax),
	}

	var tests []*litmus.Test
	if fs.NArg() == 0 {
		var err error
		if tests, err = litmus.Corpus(); err != nil {
			return err
		}
	} else {
		for _, name := range fs.Args() {
			t, err := litmus.Load(name)
			if err != nil {
				return err
			}
			tests = append(tests, t)
		}
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
		fmt.Println(rep.Summary())
		if *verbose {
			for _, a := range rep.Allowed {
				mark := " "
				if _, ok := rep.Observed[a]; ok {
					mark = "*"
				}
				fmt.Printf("  %s allowed %q\n", mark, a)
			}
		}
		if !rep.Ok() {
			failures++
			for _, v := range rep.Violations {
				msg, err := litmus.ExplainViolation(t, rep, v)
				if err != nil {
					return err
				}
				fmt.Print(msg)
			}
			for _, f := range rep.AssertFailures {
				fmt.Printf("  assert: %s\n", f)
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d tests failed", failures, len(tests))
	}
	return nil
}

func cmdShow(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("show takes exactly one test name")
	}
	t, err := litmus.Load(args[0])
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	seeds := fs.Int("seeds", 64, "jitter seeds to sweep")
	_ = fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("explain takes a test name and an outcome string")
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
		return fmt.Errorf("%w\nobserved outcomes:\n%s", err, observedList(rep))
	}
	fmt.Print(msg)
	return nil
}

func observedList(rep *litmus.Report) string {
	out := ""
	for o, seeds := range rep.Observed {
		out += fmt.Sprintf("  %q (%d seeds)\n", o, len(seeds))
	}
	return out
}

func cmdFuzz(args []string) error {
	fs := flag.NewFlagSet("fuzz", flag.ExitOnError)
	budget := fs.Duration("budget", 0, "wall-clock budget (overrides -n)")
	count := fs.Int("n", 100, "candidate count when no budget is set")
	rng := fs.Uint64("rng", 1, "generator seed")
	seeds := fs.Int("seeds", 16, "jitter seeds per candidate")
	tuning := tuningFlags(fs)
	_ = fs.Parse(args)
	tune, err := tuning()
	if err != nil {
		return err
	}

	// SIGINT/SIGTERM stop the run cleanly between candidates; stats for
	// the work done so far still print.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	st, err := litmus.Fuzz(ctx, litmus.FuzzOptions{
		Rng:    *rng,
		Seeds:  litmus.Seeds(*seeds),
		Budget: *budget,
		Count:  *count,
		Tuning: tune,
		Log: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("fuzz: %d candidates tested, %d skipped at the state limit, %s elapsed (%s)\n",
		st.Tested, st.Skipped, st.Elapsed.Round(time.Millisecond), st.Rates())
	if st.Failure == nil {
		return nil
	}
	f := st.Failure
	fmt.Println("\ncross-validation VIOLATION — simulator escaped the axiomatic allowed set")
	fmt.Println("minimized reproducer:")
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f.Shrunk); err != nil {
		return err
	}
	for _, v := range f.ShrunkReport.Violations {
		msg, err := litmus.ExplainViolation(f.Shrunk, f.ShrunkReport, v)
		if err != nil {
			return err
		}
		fmt.Print(msg)
	}
	return fmt.Errorf("fuzzing found a violation")
}

func cmdFarm(args []string) error {
	fs := flag.NewFlagSet("farm", flag.ExitOnError)
	budget := fs.Duration("budget", 0, "wall-clock budget (overrides -n)")
	count := fs.Int("n", 4000, "candidate count when no budget is set")
	rng := fs.Uint64("rng", 1, "campaign seed")
	seeds := fs.Int("seeds", 16, "jitter seeds per candidate")
	farmWorkers := fs.Int("farm-workers", 8, "concurrent candidate pipelines")
	out := fs.String("out", "", "directory to (re)write the generated corpus into")
	report := fs.Bool("report", false, "print the axiom-coverage report over hand-written + accepted tests")
	tuning := tuningFlags(fs)
	_ = fs.Parse(args)
	tune, err := tuning()
	if err != nil {
		return err
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	st, tests, err := litmus.Farm(ctx, litmus.FarmOptions{
		Rng:     *rng,
		Count:   *count,
		Budget:  *budget,
		Workers: *farmWorkers,
		Seeds:   litmus.Seeds(*seeds),
		Tuning:  tune,
		Log: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
	})
	if err != nil {
		return err
	}
	if st.Failure != nil {
		f := st.Failure
		fmt.Println("\ncross-validation VIOLATION — simulator escaped the axiomatic allowed set")
		fmt.Println("minimized reproducer:")
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(f.Shrunk); err != nil {
			return err
		}
		return fmt.Errorf("farm found a violation")
	}
	fmt.Println(st.Summary())
	if *report {
		if err := coverageReport(os.Stdout, tests); err != nil {
			return err
		}
	}
	if *out != "" {
		if err := litmus.WriteGeneratedCorpus(*out, tests); err != nil {
			return err
		}
		fmt.Printf("wrote %d tests to %s\n", len(tests), *out)
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
