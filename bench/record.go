package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// record is the JSON ledger of one invocation: the host, every untraced
// set and every traced run.
type record struct {
	Host    hostInfo        `json:"host"`
	Seed    uint64          `json:"seed"`
	Seconds int             `json:"seconds"`
	Sets    [][]childResult `json:"sets"`
	Traced  []childResult   `json:"traced,omitempty"`

	path string
}

func newRecord(o options) *record {
	h := host()
	h.GOMAXPROCS = benchProcs
	return &record{Host: h, Seed: o.seed, Seconds: o.seconds, path: o.jsonOut}
}

func (r *record) write() error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(r.path, append(data, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// runs lists every run in the record: the untraced sets, then the traced
// runs.
func (r *record) runs() []childResult {
	var out []childResult
	for _, set := range r.Sets {
		out = append(out, set...)
	}
	return append(out, r.Traced...)
}

// names lists the record's workloads in run order.
func (r *record) names() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range r.runs() {
		if !seen[c.Workload] {
			seen[c.Workload] = true
			out = append(out, c.Workload)
		}
	}
	return out
}

// values collects one workload's metric over the untraced sets.
func (r *record) values(workload, name string) []float64 {
	var xs []float64
	for _, set := range r.Sets {
		for _, c := range set {
			if m, ok := c.Metrics[name]; ok && c.Workload == workload {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

// medians returns, per workload, each untraced metric's median over the
// sets.
func (r *record) medians() []childResult {
	var out []childResult
	for _, w := range r.names() {
		res := childResult{Workload: w, Metrics: map[string]metric{}}
		for _, set := range r.Sets {
			for _, c := range set {
				if c.Workload != w {
					continue
				}
				for name, m := range c.Metrics {
					if _, done := res.Metrics[name]; !done {
						res.Metrics[name] = metric{median(r.values(w, name)), m.Unit}
					}
				}
			}
		}
		if len(res.Metrics) > 0 {
			out = append(out, res)
		}
	}
	return out
}

// worse is how much worse b is than a, as a share of a, for a metric where
// better says which direction is good; negative means b is better.
func worse(a, b float64, better string) float64 {
	if a == 0 {
		if a == b {
			return 0
		}
		return math.Inf(1)
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// printAgreement shows, for a record with several untraced sets, how far
// apart the sets are on each end-to-end metric against its bound.
func printAgreement(w io.Writer, r *record, spec *benchSpec) {
	fmt.Fprintf(w, "agreement of %d sets (max-min over median, against the bound):\n", len(r.Sets))
	for _, name := range r.names() {
		for _, m := range spec.EndToEnd {
			xs := r.values(name, m.Name)
			if len(xs) < 2 {
				continue
			}
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, x := range xs {
				lo, hi = math.Min(lo, x), math.Max(hi, x)
			}
			spread := (hi - lo) / math.Abs(median(xs))
			verdict := "ok"
			if spread > m.Bound {
				verdict = "OUTSIDE BOUND"
			}
			fmt.Fprintf(w, "  %-17s %-14s %7.2f%% of %3.0f%%  %s\n", name, m.Name, 100*spread, 100*m.Bound, verdict)
		}
	}
}

// compareRecords prints the change of every metric from record oldPath to
// record newPath. It returns 1 when an end-to-end metric got worse by more
// than its bound on some workload.
func compareRecords(oldPath, newPath string, stdout, stderr io.Writer) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	a, err := readRecord(oldPath)
	if err == nil {
		var b *record
		if b, err = readRecord(newPath); err == nil {
			return compare(a, b, spec, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compare(a, b *record, spec *benchSpec, w io.Writer) int {
	fmt.Fprintf(w, "old: %d cpus, %s; new: %d cpus, %s\n", a.Host.CPUs, a.Host.GoVersion, b.Host.CPUs, b.Host.GoVersion)
	code := 0
	am := map[string]childResult{}
	for _, c := range a.medians() {
		am[c.Workload] = c
	}
	for _, nb := range b.medians() {
		na, ok := am[nb.Workload]
		if !ok {
			continue
		}
		for _, m := range spec.EndToEnd {
			x, okA := na.Metrics[m.Name]
			y, okB := nb.Metrics[m.Name]
			if !okA || !okB {
				continue
			}
			d := worse(x.Value, y.Value, m.Better)
			verdict := "same"
			switch {
			case d > m.Bound:
				verdict, code = "WORSE", 1
			case d < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "  %-17s %-14s %12.5g -> %-12.5g %s  %+6.1f%% (bound %.0f%%) %s\n",
				nb.Workload, m.Name, x.Value, y.Value, x.Unit, 100*d, 100*m.Bound, verdict)
		}
	}
	at := map[string]childResult{}
	for _, c := range a.Traced {
		at[c.Workload] = c
	}
	for _, tb := range b.Traced {
		ta, ok := at[tb.Workload]
		if !ok {
			continue
		}
		for _, m := range spec.PerLayer {
			x, okA := ta.Metrics[m.Name]
			y, okB := tb.Metrics[m.Name]
			if okA && okB && x.Value != y.Value {
				fmt.Fprintf(w, "  %-17s %-30s %12.5g -> %-12.5g %s  (%+.1f%% worse, no bound)\n",
					tb.Workload, m.Name, x.Value, y.Value, x.Unit, 100*worse(x.Value, y.Value, m.Better))
			}
		}
	}
	return code
}
