package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"testing"
	"time"

	"ssmp/internal/bccheck"
	"ssmp/internal/litmus"
)

var update = flag.Bool("update", false, "rewrite testdata/counters.json and allowed.json")

// smokeOps sizes the smoke runs: a few ops of each workload.
var smokeOps = map[string]int{
	"paper-figures":    6,
	"kv-chaos-lanes":   2,
	"litmus-replay":    12,
	"litmus-enumerate": 330,
	"ssmpd-mix":        100,
}

func smoke(t *testing.T, name string, seed uint64, tm tamper) childResult {
	t.Helper()
	return runChild(options{workload: name, seed: seed, seconds: 1, ops: smokeOps[name], setupReps: 1, tamper: tm})
}

func readSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkMetrics asserts that every metric BENCHMARK.json names was emitted
// with its unit and a finite value, and that every name and unit is valid.
func checkMetrics(t *testing.T, r childResult, want []specMetric) {
	t.Helper()
	for _, m := range want {
		got, ok := r.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", r.Workload, m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", r.Workload, m.Name, got.Unit, m.Unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("%s: metric %s = %v", r.Workload, m.Name, got.Value)
		}
	}
	for name, m := range r.Metrics {
		if !metricName.MatchString(name) || !unitName.MatchString(m.Unit) {
			t.Errorf("%s: invalid metric name or unit %q %q", r.Workload, name, m.Unit)
		}
	}
}

// TestSmoke runs every workload for a few ops on seed 1, checks its
// metrics and pins its host-independent counters, then runs seed 2, whose
// counters are not pinned, to show the checks pass on other inputs too.
// A change that moves a counter must re-pin testdata/counters.json
// (go test -run TestSmoke -update), which declares the change.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	got := map[string]any{}
	for _, w := range workloads {
		for _, seed := range []uint64{1, 2} {
			r := smoke(t, w.name, seed, tamperNone)
			if r.Failed > 0 || r.Attempted != smokeOps[w.name] {
				t.Fatalf("%s seed %d: %d of %d ops failed: %v", w.name, seed, r.Failed, r.Attempted, r.Errors)
			}
			checkMetrics(t, r, spec.EndToEnd)
			if seed == 1 {
				got[w.name] = r.Counters
			}
		}
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	const path = "testdata/counters.json"
	if *update {
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var a, b map[string]map[string]any
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &b); err != nil {
		t.Fatal(err)
	}
	for name := range b {
		if !reflect.DeepEqual(a[name], b[name]) {
			t.Errorf("%s: counters changed from the pinned ones\n got: %v\nwant: %v", name, a[name], b[name])
		}
	}
	if len(a) != len(b) {
		t.Errorf("pinned %d workloads, ran %d", len(b), len(a))
	}
}

// TestPinnedAllowedSets checks allowed.json against the model's allowed
// sets of the tests that pin none in the corpus, so a stale pin fails here
// rather than as benchmark errors.
func TestPinnedAllowedSets(t *testing.T) {
	hand, err := litmus.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	gen, err := litmus.Generated()
	if err != nil {
		t.Fatal(err)
	}
	pins := map[string]string{}
	for _, tc := range append(hand, gen...) {
		if tc.Allowed != nil {
			continue
		}
		rep, err := litmus.RunTuned(tc, nil, bccheck.Tuning{})
		if err != nil {
			t.Fatal(err)
		}
		pins[tc.Name] = digest(rep.Allowed)
	}
	if *update {
		data, err := json.MarshalIndent(pins, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("allowed.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	c, err := loadCorpus(tamperNone)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pins, c.pins) {
		t.Fatalf("allowed.json is stale: %d pins, %d tests without their own", len(c.pins), len(pins))
	}
}

// TestFalsifiable breaks each kind of check and requires failed ops, a
// nonzero error_rate and a nonzero exit code.
func TestFalsifiable(t *testing.T) {
	spec := readSpec(t)
	for _, c := range []struct {
		workload string
		tm       tamper
	}{
		{"paper-figures", tamperCell},
		{"kv-chaos-lanes", tamperOracle},
		{"litmus-replay", tamperAllowed},
		{"litmus-enumerate", tamperAllowed},
		{"ssmpd-mix", tamperStatus},
		{"ssmpd-mix", tamperBody},
	} {
		r := smoke(t, c.workload, 1, c.tm)
		if r.Failed == 0 || r.Metrics["error_rate"].Value <= 0 {
			t.Errorf("%s with %s broken: %d failed, error_rate %v", c.workload, c.tm, r.Failed, r.Metrics["error_rate"])
		}
		var out, errOut bytes.Buffer
		rec := &record{Sets: [][]childResult{{r}}}
		if code := report(rec, spec, &out, &errOut); code == 0 {
			t.Errorf("%s with %s broken: exit code 0", c.workload, c.tm)
		}
		var line struct {
			Correct bool `json:"correct"`
			Failed  int  `json:"failed"`
		}
		if err := json.Unmarshal(lastLine(out.Bytes()), &line); err != nil || line.Correct || line.Failed == 0 {
			t.Errorf("%s with %s broken: result line %s (%v)", c.workload, c.tm, lastLine(out.Bytes()), err)
		}
	}
}

// TestMissingMetricFails requires a nonzero exit when a metric that
// BENCHMARK.json names is absent.
func TestMissingMetricFails(t *testing.T) {
	spec := readSpec(t)
	r := childResult{Workload: "x", Attempted: 1, Metrics: map[string]metric{}}
	var out, errOut bytes.Buffer
	if code := report(&record{Sets: [][]childResult{{r}}}, spec, &out, &errOut); code == 0 {
		t.Fatal("exit code 0 with every metric missing")
	}
}

func TestKindMedianMean(t *testing.T) {
	ms := time.Millisecond
	lat := []time.Duration{1 * ms, 10 * ms, 2 * ms, 100 * ms, 3 * ms}
	kinds := []int{0, 1, 0, 1, 0}
	// kind 0: 3 ops, median 2 ms; kind 1: 2 ops, median 55 ms.
	if got, want := kindMedianMean(lat, kinds), (3*2.0+2*55.0)/5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("kindMedianMean = %v, want %v", got, want)
	}
}

func TestWindow(t *testing.T) {
	w := window{round: 3, d: time.Second}
	for _, c := range []struct {
		i       int
		elapsed time.Duration
		open    bool
	}{
		{0, 2 * time.Second, true},  // the first round always runs
		{2, 2 * time.Second, true},  // a round runs to its end
		{3, time.Second / 2, true},  // before d, the next round starts
		{3, 2 * time.Second, false}, // after d, it does not
		{4, time.Second / 2, true},
	} {
		if got := w.open(c.i, c.elapsed); got != c.open {
			t.Errorf("open(%d, %v) = %v, want %v", c.i, c.elapsed, got, c.open)
		}
	}
	if f := fixed(5); !f.open(4, time.Hour) || f.open(5, 0) {
		t.Error("a fixed window of 5 ops must run ops 0-4 and no more")
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},  // nested
		{ID: 2, Parent: 0, Start: 20, End: 40},  // overlaps 1: 10..40 covered once
		{ID: 3, Parent: 0, Start: 90, End: 130}, // runs past its parent: 90..100 counts
		{ID: 4, Parent: 1, Start: 12, End: 18},  // grandchild
		{ID: 5, Parent: 0, Start: 50, End: 50},  // empty
	}
	self := selfTimes(spans)
	want := map[int]int64{0: 100 - 30 - 10, 1: 20 - 6, 2: 20, 3: 40, 4: 6, 5: 0}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	for i := range spans {
		spans[i].Layer = "core"
	}
	spans[0].Layer = "bench"
	rows := layerTable(append(spans, span{ID: 6, Parent: -1, Layer: "core", Start: 200, End: 210}), 200)
	if len(rows) != len(layers) {
		t.Fatalf("%d rows for %d layers", len(rows), len(layers))
	}
	for _, r := range rows {
		switch r.Layer {
		case "bench":
			if r.Spans != 1 || r.SelfMS != 60e-6 {
				t.Errorf("bench row %+v", r)
			}
		case "core":
			if r.Spans != 5 || math.Abs(r.SelfMS-80e-6) > 1e-12 || r.SuiteSpans != 1 || r.SuiteSelfMS != 10e-6 {
				t.Errorf("core row %+v", r)
			}
		}
	}
}

// TestTracedRun runs one traced run, which includes the layer suite,
// and checks the per-layer metrics, the span file and the layer table.
func TestTracedRun(t *testing.T) {
	spec := readSpec(t)
	dir := t.TempDir()
	r := runChild(options{workload: "litmus-enumerate", seed: 1, seconds: 1, trace: 1, traceDir: dir, ops: 330, setupReps: 1})
	if r.Failed > 0 {
		t.Fatalf("%d of %d ops failed: %v", r.Failed, r.Attempted, r.Errors)
	}
	checkMetrics(t, r, spec.PerLayer)
	if len(spec.PerLayer) != len(r.Metrics) {
		t.Errorf("traced run emits %d metrics, BENCHMARK.json names %d", len(r.Metrics), len(spec.PerLayer))
	}
	tf, err := readTrace(r.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	if tf.Workload != "litmus-enumerate" || len(tf.Spans) == 0 {
		t.Fatalf("trace file holds %q with %d spans", tf.Workload, len(tf.Spans))
	}
	if !reflect.DeepEqual(layerTable(tf.Spans, tf.SuiteAt), tf.Layers) {
		t.Error("the layer table does not follow from the spans written")
	}
	var got []string
	for _, row := range tf.Layers {
		got = append(got, row.Layer)
		if row.Spans+row.SuiteSpans == 0 && row.Layer != "msg" {
			t.Errorf("layer %s has no spans", row.Layer)
		}
	}
	if bc := tf.Layers[slices.Index(layers, "bccheck")]; bc.Spans == 0 || bc.Share < 0.5 {
		t.Errorf("litmus-enumerate's traced ops should be mostly bccheck: %+v", bc)
	}
	want := append([]string(nil), layers...)
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("table layers %v, want %v", got, want)
	}
}
