// Command bench is the system's benchmark: five workloads, from the
// paper's figures to the ssmpd daemon, measured end to end and layer by
// layer. See README.md.
//
//	go run . -seed 1                      # one set of all five workloads
//	go run . -seed 1 -trace 1             # traced runs: per-layer metrics
//	go run . -workload kv-chaos-lanes     # one workload
//	go run . -sets 2 -trace 1 -json r.json
//	go run . -compare old.json new.json
//
// Each workload runs in its own child process of this binary with
// GOMAXPROCS=2. The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"
)

// benchProcs is the GOMAXPROCS every workload process runs with, the CPU
// count of the reference host, so records from larger hosts stay
// comparable.
const benchProcs = 2

// childTimeout stops a workload process that overruns: a run must end
// within 180 seconds.
const childTimeout = 170 * time.Second

type options struct {
	seed     uint64
	seconds  int
	workload string // "" runs all five
	trace    int
	traceDir string
	jsonOut  string
	sets     int
	cpuProf  string
	child    bool

	// Set only by tests: a fixed op count, a fixed number of set-ups, and
	// a check to break on purpose.
	ops       int
	setupReps int
	tamper    tamper
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: every input is generated from it")
	fs.IntVar(&o.seconds, "seconds", 20, "length of each workload's measured window")
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all five)")
	fs.IntVar(&o.trace, "trace", 0, "1 runs traced runs, which report the per-layer metrics")
	fs.StringVar(&o.traceDir, "trace-dir", ".bench_build/trace", "where traced runs write their spans")
	fs.StringVar(&o.jsonOut, "json", "", "write the run's record to this file")
	fs.IntVar(&o.sets, "sets", -1, "untraced sets of runs (default 1, or 0 with -trace 1)")
	fs.StringVar(&o.cpuProf, "cpuprofile", "", "write each workload's CPU profile to this path plus .<workload>")
	fs.BoolVar(&o.child, "child", false, "run one workload in this process (internal)")
	compare := fs.Bool("compare", false, "compare two records: -compare OLD NEW")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two record files")
			return 2
		}
		return compareRecords(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	if o.sets < 0 {
		o.sets = 1 - o.trace
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, err := workloadByName(o.workload); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if o.child {
		runtime.GOMAXPROCS(benchProcs)
		res := runChild(o)
		data, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", data)
		return 0
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rec := newRecord(o)
	for set := 0; set < o.sets; set++ {
		var rs []childResult
		for _, name := range names {
			rs = append(rs, spawn(o, name, 0, stderr))
		}
		rec.Sets = append(rec.Sets, rs)
	}
	if o.trace == 1 {
		for _, name := range names {
			rec.Traced = append(rec.Traced, spawn(o, name, 1, stderr))
		}
	}
	return report(rec, spec, stdout, stderr)
}

// spawn runs one workload in a child process and returns its result.
func spawn(o options, name string, trace int, stderr io.Writer) childResult {
	fail := func(err error) childResult {
		return childResult{Workload: name, Trace: trace, Attempted: 1, Failed: 1, Errors: []string{err.Error()}}
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	args := []string{"-child", "-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace), "-trace-dir", o.traceDir}
	if o.cpuProf != "" {
		args = append(args, "-cpuprofile", o.cpuProf)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", benchProcs))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return fail(fmt.Errorf("%s: %w", name, err))
	}
	var res childResult
	if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
		return fail(fmt.Errorf("%s: reading result: %w", name, err))
	}
	return res
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// childResult is what one workload process reports.
type childResult struct {
	Workload  string            `json:"workload"`
	Trace     int               `json:"trace"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Host      hostInfo          `json:"host"`
	Ops       int               `json:"ops"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Counters are the deterministic counters of the untraced pass.
	Counters  map[string]any `json:"counters,omitempty"`
	Layers    []layerRow     `json:"layers,omitempty"`
	TraceFile string         `json:"trace_file,omitempty"`
}

func (r *childResult) add(p *pass) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	for _, e := range p.errs {
		if len(r.Errors) < 8 {
			r.Errors = append(r.Errors, e)
		}
	}
}

// setUps sets the workload up repeatedly and returns the last job and the
// time of each set-up, which includes one warm-up op; a warm-up op that
// fails counts as a failed op. It repeats at least minReps times, and on
// while the repetitions total under 0.5 s (at most 100 times), because a
// short set-up timed once sees the host's fast jitter in full.
func setUps(w workloadDef, o options, res *childResult, minReps int) (job, []float64, error) {
	var j job
	var times []float64
	var total time.Duration
	for len(times) < minReps || (total < time.Second/2 && len(times) < 100) {
		if o.setupReps > 0 && len(times) == o.setupReps {
			break
		}
		t0 := time.Now()
		next, err := w.setup(o.seed, o.tamper)
		if err != nil {
			if j != nil {
				j.close()
			}
			return nil, nil, err
		}
		werr := next.warm()
		d := time.Since(t0)
		if werr != nil {
			res.add(failedPass(fmt.Errorf("warm-up: %w", werr)))
		}
		times = append(times, d.Seconds())
		total += d
		if j != nil {
			j.close()
		}
		j = next
	}
	return j, times, nil
}

// runChild runs one workload in this process. Untraced, it measures the
// end-to-end metrics; traced, it runs half the ops with an off tracer, the
// same ops traced, and the layer suite, and reports the per-layer metrics.
func runChild(o options) childResult {
	w, err := workloadByName(o.workload)
	res := childResult{Workload: o.workload, Trace: o.trace, Seed: o.seed, Seconds: o.seconds,
		Host: host(), Metrics: map[string]metric{}}
	if err != nil {
		res.add(failedPass(err))
		return res
	}
	j, setupTimes, err := setUps(w, o, &res, 2)
	if err != nil {
		res.add(failedPass(fmt.Errorf("set-up: %w", err)))
		return res
	}
	defer j.close()
	if o.cpuProf != "" {
		f, err := os.Create(o.cpuProf + "." + w.name)
		if err == nil && pprof.StartCPUProfile(f) == nil {
			defer f.Close()
			defer pprof.StopCPUProfile()
		}
	}
	if o.trace == 0 {
		win := w.timed(float64(o.seconds))
		if o.ops > 0 {
			win = fixed(o.ops)
		}
		mem := sampleMem(100*o.seconds + 100)
		a0 := mallocs()
		p := j.run(win, nil)
		allocs := mallocs() - a0
		memMB := mem.median()
		res.Ops = p.attempted
		rss := peakRSSMB()
		if o.setupReps == 0 {
			// Set-ups timed after the window as well as before it sample
			// the host at two moments, as the window's many ops do.
			more, times, err := setUps(w, o, &res, 1)
			if err != nil {
				res.add(failedPass(fmt.Errorf("set-up: %w", err)))
			} else {
				more.close()
				setupTimes = append(setupTimes, times...)
			}
		}
		res.Metrics = endToEnd(p, median(setupTimes), rss, memMB, allocs)
		res.Counters = pinnedCounters(p)
		res.add(p)
		return res
	}
	res.Ops = w.ops(float64(o.seconds) / 2)
	if o.ops > 0 {
		res.Ops = o.ops
	}
	base := j.run(fixed(res.Ops), &tracer{off: true})
	tr := newTracer(w.name)
	traced := j.run(fixed(res.Ops), tr)
	suiteAt := tr.now()
	suiteMetrics, sp := runSuite(tr, o.seed)
	res.add(base)
	res.add(traced)
	res.add(sp)
	res.Metrics = layerCounts(base)
	for k, v := range suiteMetrics {
		res.Metrics[k] = v
	}
	res.Metrics["bench.trace_overhead_frac"] = metric{mean(traced.lat)/mean(base.lat) - 1, "frac"}
	res.Counters = pinnedCounters(base)
	spans := tr.snapshot()
	res.Layers = layerTable(spans, suiteAt)
	path, err := writeTrace(o.traceDir, traceFile{Workload: w.name, Seed: o.seed, SuiteAt: suiteAt,
		Layers: res.Layers, Spans: spans})
	if err != nil {
		res.add(failedPass(fmt.Errorf("writing spans: %w", err)))
	}
	res.TraceFile = path
	return res
}

func failedPass(err error) *pass {
	p := newPass()
	p.attempted = 1
	p.fail(err)
	return p
}

// report prints every metric as "workload metric value unit", the layer
// tables of traced runs and the result line, writes the record, and
// returns the exit code: non-zero when an op failed or a metric that
// BENCHMARK.json names is missing.
func report(rec *record, spec *benchSpec, stdout, stderr io.Writer) int {
	ok := true
	for _, r := range rec.runs() {
		if r.Failed > 0 {
			ok = false
			fmt.Fprintf(stderr, "bench: %s: %d of %d ops failed\n", r.Workload, r.Failed, r.Attempted)
			for _, e := range r.Errors {
				fmt.Fprintf(stderr, "  %s\n", e)
			}
		}
		want := spec.EndToEnd
		if r.Trace == 1 {
			want = spec.PerLayer
		}
		for _, m := range want {
			got, found := r.Metrics[m.Name]
			if !found || got.Unit != m.Unit {
				ok = false
				fmt.Fprintf(stderr, "bench: %s: metric %s missing or not in %s\n", r.Workload, m.Name, m.Unit)
			}
		}
		for _, name := range sortedKeys(r.Metrics) {
			m := r.Metrics[name]
			fmt.Fprintf(stdout, "%s %s %s %s\n", r.Workload, name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		}
		if r.Trace == 1 {
			printLayerTable(stdout, r.Workload, r.Layers)
		}
	}
	if len(rec.Sets) > 1 {
		printAgreement(stdout, rec, spec)
	}
	if rec.path != "" {
		if err := rec.write(); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			ok = false
		}
	}
	line := resultLine(rec, spec, ok)
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if !ok {
		return 1
	}
	return 0
}

// resultLine is the last line of output. Its metrics are exactly the ones
// BENCHMARK.json names; with several workloads they are named
// workload/metric, and with several untraced sets each is the median over
// the sets.
func resultLine(rec *record, spec *benchSpec, ok bool) map[string]any {
	attempted, failed := 0, 0
	for _, r := range rec.runs() {
		attempted += r.Attempted
		failed += r.Failed
	}
	named := map[string]bool{}
	for _, ms := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
		for _, m := range ms {
			named[m.Name] = true
		}
	}
	metrics := map[string]metric{}
	single := len(rec.names()) == 1
	for _, r := range append(rec.medians(), rec.Traced...) {
		for name, m := range r.Metrics {
			if !named[name] {
				continue
			}
			if !single {
				name = r.Workload + "/" + name
			}
			metrics[name] = m
		}
	}
	return map[string]any{
		"correct":   ok && failed == 0,
		"attempted": max(attempted, 1),
		"failed":    failed,
		"metrics":   metrics,
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// loadSpec reads BENCHMARK.json from the working directory or its parent,
// so the benchmark runs from the repository root or from its own directory.
func loadSpec() (*benchSpec, error) {
	var errs []error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("no BENCHMARK.json: %w", errors.Join(errs...))
}

// benchSpec is the part of BENCHMARK.json the benchmark checks itself
// against.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}
