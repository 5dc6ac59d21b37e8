package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// layers are the rows of the per-layer table, one per package of the
// system. A span's layer is the package whose work dominates the call it
// wraps; msg has no entry point of its own and shows up only in counters.
var layers = []string{
	"bench", "harness", "workload", "core", "sim", "cbl", "ruc", "wbi",
	"msg", "network", "fabric", "kvapp", "litmus", "bccheck", "server",
}

// span is one timed call. Spans of one op share its op id; spans outside
// any op use -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: span calls its function and records nothing. An off tracer
// records nothing either, but an op given one makes the traced run's finer
// calls, so it does the traced run's work without the tracer's cost.
type tracer struct {
	workload string
	base     time.Time
	off      bool

	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, base: time.Now()}
}

// span runs fn as a span named name in layer, under parent (-1 for a root),
// and returns fn's error. fn receives the new span's id for its children.
// The call also carries pprof labels, so a CPU profile of a traced run
// splits by workload and layer with go tool pprof -tagfocus.
func (t *tracer) span(parent, op int, layer, name string, fn func(id int) error) error {
	if t == nil || t.off {
		return fn(-1)
	}
	t.mu.Lock()
	id := t.next
	t.next++
	t.mu.Unlock()
	var err error
	start := time.Since(t.base)
	pprof.Do(context.Background(), pprof.Labels("workload", t.workload, "layer", layer),
		func(context.Context) { err = fn(id) })
	end := time.Since(t.base)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer,
		Start: int64(start), End: int64(end)})
	t.mu.Unlock()
	return err
}

// now is the time since the trace began, on the spans' clock.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// snapshot returns the spans recorded so far, ordered by id.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children are clipped to the
// parent's interval (a child may outlive its parent) and overlapping
// children count once.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		var covered int64
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		cur := [2]int64{-1, -1}
		for _, c := range iv {
			lo, hi := max(c[0], s.Start), min(c[1], s.End)
			if lo >= hi {
				continue
			}
			if lo > cur[1] {
				covered += cur[1] - cur[0]
				cur = [2]int64{lo, hi}
			} else if hi > cur[1] {
				cur[1] = hi
			}
		}
		covered += cur[1] - cur[0]
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerRow is one row of the per-layer table: self time in the workload's
// traced ops, and separately in the layer suite that follows them.
type layerRow struct {
	Layer       string  `json:"layer"`
	Spans       int     `json:"spans"`
	SelfMS      float64 `json:"self_ms"`
	Share       float64 `json:"share"` // of the traced ops' self time
	SuiteSpans  int     `json:"suite_spans"`
	SuiteSelfMS float64 `json:"suite_self_ms"`
}

// layerTable sums self time per layer; every layer gets a row. Spans that
// start at or after suiteAt (ns since the trace began) are the layer
// suite's.
func layerTable(spans []span, suiteAt int64) []layerRow {
	self := selfTimes(spans)
	rows := make([]layerRow, len(layers))
	idx := map[string]int{}
	for i, l := range layers {
		rows[i].Layer = l
		idx[l] = i
	}
	var total int64
	for _, s := range spans {
		i, ok := idx[s.Layer]
		if !ok {
			continue
		}
		ms := float64(self[s.ID]) / 1e6
		if s.Start >= suiteAt {
			rows[i].SuiteSpans++
			rows[i].SuiteSelfMS += ms
			continue
		}
		rows[i].Spans++
		rows[i].SelfMS += ms
		total += self[s.ID]
	}
	for i := range rows {
		if total > 0 {
			rows[i].Share = rows[i].SelfMS * 1e6 / float64(total)
		}
	}
	return rows
}

func printLayerTable(w io.Writer, workload string, rows []layerRow) {
	fmt.Fprintf(w, "per-layer self time, %s (traced run):\n", workload)
	fmt.Fprintf(w, "  %-9s %9s %12s %7s | %13s %15s\n", "layer", "op spans", "op self_ms", "share", "suite spans", "suite self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-9s %9d %12.3f %6.1f%% | %13d %15.3f\n",
			r.Layer, r.Spans, r.SelfMS, 100*r.Share, r.SuiteSpans, r.SuiteSelfMS)
	}
}

// traceFile is the on-disk form of one traced run's spans.
type traceFile struct {
	Workload string     `json:"workload"`
	Seed     uint64     `json:"seed"`
	SuiteAt  int64      `json:"suite_at_ns"`
	Layers   []layerRow `json:"layers"`
	Spans    []span     `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s.seed%d.json", tf.Workload, tf.Seed))
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

func readTrace(path string) (traceFile, error) {
	var tf traceFile
	data, err := os.ReadFile(path)
	if err != nil {
		return tf, err
	}
	return tf, json.Unmarshal(data, &tf)
}
