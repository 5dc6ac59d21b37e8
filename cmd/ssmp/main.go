// Command ssmp runs the simulator's offline tools: one simulation, trace
// replay, the paper's tables, figures and report, the memory-model litmus
// tests, the synchronization zoo and the in-sim key-value service.
//
// Usage:
//
//	ssmp sim -procs 16 -proto cbl -consistency bc -workload queue
//	ssmp trace -gen -procs 8 | ssmp trace
//	ssmp tables -n 16 -sim
//	ssmp figures -procs 2,4,8,16,32,64 -csv results/ -svg results/
//	ssmp report -procs 2,4,8,16,32,64 > report.md
//	ssmp litmus run -seeds 64
//	ssmp sync locks -procs 2,4,8
//	ssmp kv sweep -procs 4,8,16
//
// Each tool takes its own flags (ssmp <tool> -h lists them). A tool that
// fails prints "ssmp <tool>: <error>" and exits 1; a bad flag or a missing
// subcommand exits 2.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ssmp/internal/core"
	"ssmp/internal/litmus"
	"ssmp/internal/network"
)

const usage = `usage: ssmp <tool> [flags] [args]

tools:
  sim      run one simulation and print its metrics
  trace    replay a memory-reference trace, or generate or capture one
  tables   the paper's Tables 2 and 3 (-sim: measured on the simulator too)
  figures  the paper's Figures 4-7 as tables, CSV and SVG
  report   the whole evaluation as Markdown, with its shape claims checked
  litmus   memory-model litmus tests: list | run | show | explain | fuzz | farm
  sync     the synchronization zoo: list | locks | barriers | litmus
  kv       the in-sim key-value service: run | sweep | soak

ssmp <tool> -h lists a tool's flags.`

// cli holds the streams the tools use: a report goes to out, logs, traces
// and usage to log, and a trace to replay comes from in.
type cli struct {
	in       io.Reader
	out, log io.Writer
}

func main() {
	os.Exit((&cli{os.Stdin, os.Stdout, os.Stderr}).run(os.Args[1:]))
}

// run runs the tool args names and returns the process exit status.
func (c *cli) run(args []string) int {
	err := subcommand(args, usage, map[string]func([]string) error{
		"sim": c.sim, "trace": c.trace, "tables": c.tables, "figures": c.figures,
		"report": c.report, "litmus": c.litmus, "sync": c.sync, "kv": c.kv,
	})
	var u usageError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &u):
		fmt.Fprintln(c.log, u)
		return 2
	}
	fmt.Fprintf(c.log, "ssmp %s: %v\n", args[0], err)
	return 1
}

// usageError carries the usage text of a command called without a known
// subcommand; ssmp prints it and exits 2.
type usageError string

func (u usageError) Error() string { return string(u) }

// subcommand runs the subcommand that args[0] names with the rest of args.
func subcommand(args []string, usage string, subs map[string]func([]string) error) error {
	if len(args) > 0 {
		if run, ok := subs[args[0]]; ok {
			return run(args[1:])
		}
	}
	return usageError(usage)
}

// flags returns the flag set of the named tool. As on the flag package's
// own command line, a bad flag exits 2 and -h exits 0.
func (c *cli) flags(name string) *flag.FlagSet {
	fs := flag.NewFlagSet("ssmp "+name, flag.ExitOnError)
	fs.SetOutput(c.log)
	return fs
}

// parseProcs parses a comma-separated list of processor counts.
func parseProcs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad processor count %q", part)
		}
		if err := checkProcs(n); err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// checkProcs reports whether n is a machine size: a power of two >= 2.
func checkProcs(n int) error { return core.DefaultConfig(n).Validate() }

// faultFlags registers -drop, -dup and -delay, the per-message fault
// probabilities, defaulting to the chaos soak's rates.
func faultFlags(fs *flag.FlagSet) *network.FaultRates {
	r := litmus.DefaultChaosRates()
	fs.Float64Var(&r.Drop, "drop", r.Drop, "per-message drop probability")
	fs.Float64Var(&r.Dup, "dup", r.Dup, "per-message duplicate probability")
	fs.Float64Var(&r.Delay, "delay", r.Delay, "per-message extra-delay probability")
	return &r
}

// writeJSON writes v to w as indented JSON.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
