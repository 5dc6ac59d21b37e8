package main

import (
	"fmt"
	"math"
	"time"
)

// metric is one named measurement as the benchmark prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pass is what one measured pass of a workload produced.
type pass struct {
	lat       []time.Duration // per op, in op order for closed loops
	kinds     []int           // per op, the kind of op: its input or request class
	elapsed   time.Duration
	attempted int
	failed    int
	errs      []string
	// counts are deterministic counters summed over the pass: events,
	// messages by class, RMRs, states, fault recovery. For a fixed seed and
	// op count they repeat exactly on any host.
	counts map[string]float64
	// outcomes digests the observed litmus outcomes as they come, so a pass
	// holds no more memory at its end than at its start. A heap that grew
	// during the window would make the garbage collector run less and less
	// often, and the window's later ops faster than its first.
	outcomes *lineDigest
	// gen is the open-loop generator's lateness per request.
	gen []time.Duration
}

func newPass() *pass { return &pass{counts: map[string]float64{}, outcomes: newLineDigest()} }

func (p *pass) fail(err error) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
}

// tamper breaks one check on purpose. Only the falsifiability tests set it:
// each kind must make its workload report failed ops.
type tamper string

const (
	tamperNone    tamper = ""
	tamperCell    tamper = "cell"    // paper-figures: wrong expected cycles
	tamperOracle  tamper = "oracle"  // kv-chaos-lanes: forged oracle violation
	tamperAllowed tamper = "allowed" // litmus workloads: wrong pinned allowed set
	tamperStatus  tamper = "status"  // ssmpd-mix: a request the daemon rejects
	tamperBody    tamper = "body"    // ssmpd-mix: a cached body that differs
)

// job is a workload after set-up: inputs generated, expectations computed.
type job interface {
	// warm runs one op whose result is discarded.
	warm() error
	// run executes ops 0, 1, ... as long as win says; tr is nil for the
	// untraced run.
	run(win window, tr *tracer) *pass
	close()
}

// window is how long a measured pass lasts: exactly ops ops or, with ops
// 0, whole rounds of round ops until d has passed. Rounds keep every input
// of a pass equally often in it.
type window struct {
	ops   int
	round int
	d     time.Duration
	// hint is about how many ops a timed window runs; the pass reserves
	// room for their latencies up front.
	hint int
}

// fixed is a window of exactly n ops.
func fixed(n int) window { return window{ops: n} }

// timed is a window of whole rounds of w's ops lasting at least seconds.
func (w workloadDef) timed(seconds float64) window {
	return window{round: w.opsPerRound, d: time.Duration(seconds * float64(time.Second)), hint: 2 * w.ops(seconds)}
}

func (w window) size() int {
	if w.ops > 0 {
		return w.ops
	}
	return w.hint
}

// open reports whether op i still belongs to a pass that has run for
// elapsed.
func (w window) open(i int, elapsed time.Duration) bool {
	if w.ops > 0 {
		return i < w.ops
	}
	return i%w.round != 0 || i == 0 || elapsed < w.d
}

// workloadDef names one of the benchmark's fixed workloads.
type workloadDef struct {
	name string
	// An untraced pass runs whole rounds of opsPerRound ops for the run's
	// length. A traced run does a fixed number of rounds, as many as fit in
	// its length at roundSeconds per round, about this host's speed, so its
	// untraced and traced halves do exactly the same work.
	opsPerRound  int
	roundSeconds float64
	setup        func(seed uint64, tm tamper) (job, error)
}

var workloads = []workloadDef{
	{"paper-figures", len(paperCells()), 3.3, setupPaper},
	{"kv-chaos-lanes", 1, 0.105, setupKV},
	{"litmus-replay", 330, 1.3, setupReplay},
	{"litmus-enumerate", 330, 0.055, setupEnumerate},
	{"ssmpd-mix", ssmpdRate, 1, setupSSMPD},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// ops is the number of ops in a run of the given length.
func (w workloadDef) ops(seconds float64) int {
	return w.opsPerRound * max(1, int(math.Round(seconds/w.roundSeconds)))
}

// loopJob is a closed-loop workload: one client issues op i only after op
// i-1 completes.
type loopJob struct {
	// op runs op i under parent span and adds its counters to p.
	op func(i, parent int, tr *tracer, p *pass) error
	// kind is op i's input; nil when every op is of one kind.
	kind func(i int) int
}

func (j *loopJob) warm() error { return j.op(0, -1, nil, newPass()) }

func (j *loopJob) run(win window, tr *tracer) *pass {
	p := newPass()
	p.lat = make([]time.Duration, 0, win.size())
	p.kinds = make([]int, 0, win.size())
	start := time.Now()
	for i := 0; win.open(i, time.Since(start)); i++ {
		t0 := time.Now()
		err := tr.span(-1, i, "bench", "op", func(id int) error { return j.op(i, id, tr, p) })
		p.lat = append(p.lat, time.Since(t0))
		k := 0
		if j.kind != nil {
			k = j.kind(i)
		}
		p.kinds = append(p.kinds, k)
		p.attempted++
		if err != nil {
			p.fail(fmt.Errorf("op %d: %w", i, err))
		}
	}
	p.elapsed = time.Since(start)
	return p
}

func (j *loopJob) close() {}

// passOrder visits n inputs once per pass, each pass in its own seeded
// order: op i is input at(i).
type passOrder struct {
	seed uint64
	n    int
	pass int
	perm []int
}

func (o *passOrder) at(i int) int {
	if o.perm == nil || i/o.n != o.pass {
		o.pass = i / o.n
		o.perm = stream(o.seed, uint64(o.pass)).perm(o.n)
	}
	return o.perm[i%o.n]
}

// endToEnd derives the end-to-end metrics of an untraced pass.
func endToEnd(p *pass, setupS, rssMB, memMB float64, allocs uint64) map[string]metric {
	lat := msAll(p.lat)
	done := p.attempted - p.failed
	return map[string]metric{
		"ops_per_s":      {float64(done) / p.elapsed.Seconds(), "1/s"},
		"op_kind_p50_ms": {kindMedianMean(p.lat, p.kinds), "ms"},
		"op_p50_ms":      {quantile(lat, 0.50), "ms"},
		"op_p90_ms":      {quantile(lat, 0.90), "ms"},
		"op_p99_ms":      {quantile(lat, 0.99), "ms"},
		"setup_s":        {setupS, "s"},
		"rss_peak_mb":    {rssMB, "MB"},
		"mem_held_mb":    {memMB, "MB"},
		"allocs_per_op":  {float64(allocs) / float64(max(p.attempted, 1)), "count"},
		"error_rate":     {float64(p.failed) / float64(max(p.attempted, 1)), "frac"},
	}
}

// layerCounts derives the per-layer counter metrics of a pass: each is
// per op of the workload, and 0 where the workload does not reach the
// layer or its public results do not expose the counter.
func layerCounts(p *pass) map[string]metric {
	c := p.counts
	n := float64(max(p.attempted, 1))
	per := func(k string) float64 { return c[k] / n }
	ratio := func(a, b string) float64 {
		if c[b] == 0 {
			return 0
		}
		return c[a] / c[b]
	}
	return map[string]metric{
		"sim.events_per_op":            {per("events"), "count"},
		"core.rmr_remote_per_op":       {per("rmr_remote"), "count"},
		"msg.C_R_per_op":               {per("C_R"), "count"},
		"msg.C_W_per_op":               {per("C_W"), "count"},
		"msg.C_I_per_op":               {per("C_I"), "count"},
		"msg.C_B_per_op":               {per("C_B"), "count"},
		"cbl.msgs_per_op":              {ratio("cbl_msgs", "cbl_runs"), "count"},
		"wbi.msgs_per_op":              {ratio("wbi_msgs", "wbi_runs"), "count"},
		"network.queueing_cycles_mean": {ratio("queue_cycles", "messages"), "cycles"},
		"fabric.retries_per_op":        {per("retries"), "count"},
		"fabric.dup_suppressed_per_op": {per("dup_suppressed"), "count"},
		"fabric.acks_per_op":           {per("acks"), "count"},
		"bccheck.states_per_op":        {per("states"), "count"},
		"bccheck.pruned_per_op":        {per("pruned"), "count"},
	}
}

// pinnedCounters is the host-independent part of a pass: its counters and
// the digest of observed litmus outcomes.
func pinnedCounters(p *pass) map[string]any {
	out := map[string]any{"ops": p.attempted}
	for k, v := range p.counts {
		out[k] = v
	}
	if p.outcomes.n > 0 {
		out["outcome_digest"] = p.outcomes.sum()
	}
	return out
}
