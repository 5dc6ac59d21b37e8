package bccheck

// The exploration driver: one depth-first search over the POR-reduced,
// symmetry-quotiented graph, interning states in a hash-keyed visited
// set. The DFS keeps its path, so it also produces the canonical
// witnesses and deadlock reports. It is serial on purpose: litmus
// programs average about 90 states, too few to pay for sharing a
// frontier (two work-stealing workers measured 1.08x slower than one),
// and the callers with cores to spare (the farm's pipelines, the ssmpd
// pool) run whole programs concurrently.

import (
	"fmt"
	"strings"
)

type engine struct {
	c      *compiled
	vis    visitedSet
	states int
	pruned int
}

func newEngine(c *compiled) *engine {
	return &engine{c: c, vis: make(visitedSet)}
}

func (e *engine) limitError() error {
	return &StateLimitError{
		States: e.states,
		Limit:  e.c.max,
		Prefix: e.canonicalPrefix(16),
	}
}

// deadlockError renders the DFS path to a stuck state. Under symmetry
// reduction the path's states live in canonicalized numbering; each label
// is mapped back through the cumulative permutation recorded when it was
// emitted, so reports always read in the program's own numbering.
func (e *engine) deadlockError(path []sdesc, views []permView) error {
	labels := make([]string, len(path))
	for i := range path {
		d := e.c.origDesc(path[i], views[i])
		labels[i] = e.c.render(&d)
	}
	return fmt.Errorf("bccheck: deadlock after: %s", strings.Join(labels, "; "))
}

// canonicalPrefix walks the reduced graph from the initial state taking
// the first transition at every step, rendering up to n labels. It is a
// deterministic sketch of where the exploration's branching lives,
// attached to state-limit errors. Error path only; prune accounting
// from the walk is discarded by the caller.
func (e *engine) canonicalPrefix(n int) []string {
	w := newWorker(e)
	s := e.c.initial(w)
	cv := identView()
	if len(e.c.syms) > 0 {
		var gi int
		s, gi = w.canonicalize(s)
		cv = e.c.composeView(gi, cv)
	}
	var out []string
	for len(out) < n {
		var first *mstate
		var fd sdesc
		e.expandReduced(w, s, func(d sdesc, ns *mstate) {
			if first == nil {
				fd, first = d, ns
			} else {
				w.put(ns)
			}
		})
		if first == nil {
			break
		}
		od := e.c.origDesc(fd, cv)
		out = append(out, e.c.render(&od))
		w.put(s)
		s = first
		if len(e.c.syms) > 0 {
			var gi int
			s, gi = w.canonicalize(s)
			cv = e.c.composeView(gi, cv)
		}
	}
	w.put(s)
	return out
}

// runSerial explores depth-first with an explicit canonical path. The
// first terminal reaching each outcome key defines its witness; the
// first stuck state in canonical order defines the deadlock report.
func (e *engine) runSerial() (map[string]*Outcome, error) {
	w := newWorker(e)
	s0, gi, _ := w.canonAdd(e.c.initial(w))
	cv0 := e.c.composeView(gi, identView())
	e.states = 1
	var path []sdesc
	var views []permView
	var dfs func(s *mstate, cv permView) error
	dfs = func(s *mstate, cv permView) error {
		emitted := 0
		var ferr error
		e.expandReduced(w, s, func(d sdesc, ns *mstate) {
			emitted++
			if ferr != nil {
				w.put(ns)
				return
			}
			nc, gi, fresh := w.canonAdd(ns)
			if !fresh {
				w.put(nc)
				return
			}
			if e.states++; e.states > e.c.max {
				w.put(nc)
				ferr = e.limitError()
				return
			}
			path = append(path, d)
			views = append(views, cv)
			ferr = dfs(nc, e.c.composeView(gi, cv))
			path = path[:len(path)-1]
			views = views[:len(views)-1]
			w.put(nc)
		})
		if ferr != nil {
			return ferr
		}
		if emitted == 0 {
			if !e.c.quiescent(s) {
				return e.deadlockError(path, views)
			}
			w.record(s, path)
		}
		return nil
	}
	err := dfs(s0, cv0)
	w.put(s0)
	if err != nil {
		return nil, err
	}
	return w.outcomes, nil
}

func (e *engine) result(out map[string]*Outcome) *Result {
	// Close the terminal outcome set under the automorphism group: the
	// quotient exploration records one representative per outcome orbit,
	// and g·o is allowed whenever o is, so a single pass over each group
	// element restores exactly the symmetry-off key set.
	if c := e.c; len(c.syms) > 0 {
		base := make([]*Outcome, 0, len(out))
		for _, o := range out {
			base = append(base, o)
		}
		for _, o := range base {
			for gi := range c.syms {
				po := c.permOutcome(&c.syms[gi], o)
				if k := po.Key(); out[k] == nil {
					out[k] = po
				}
			}
		}
	}
	res := &Result{States: e.states, Pruned: e.pruned}
	for _, o := range out {
		res.Outcomes = append(res.Outcomes, *o)
	}
	sortOutcomes(res.Outcomes)
	return res
}

// enumerate explores the compiled program and assembles its result.
func (c *compiled) enumerate() (*Result, error) {
	e := newEngine(c)
	out, err := e.runSerial()
	if err != nil {
		return nil, err
	}
	return e.result(out), nil
}
