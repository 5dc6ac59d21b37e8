package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"ssmp/internal/bccheck"
	"ssmp/internal/litmus"
)

// allowedPins holds a digest of the axiomatic allowed set of every corpus
// test that does not pin its own. The generated tests pin theirs in the
// corpus, and litmus reports a mismatch as an assertion failure, which
// fails Report.Ok; the hand-written ones pin none. Rewrite it with:
// go test -run TestPinnedAllowedSets -update
//
//go:embed allowed.json
var allowedPins []byte

// litmusCorpus is every corpus test (hand-written, then generated) and the
// allowed-set digests pinned for the tests without their own pin.
type litmusCorpus struct {
	tests []*litmus.Test
	pins  map[string]string
}

func loadCorpus(tm tamper) (*litmusCorpus, error) {
	hand, err := litmus.Corpus()
	if err != nil {
		return nil, err
	}
	gen, err := litmus.Generated()
	if err != nil {
		return nil, err
	}
	c := &litmusCorpus{tests: append(hand, gen...)}
	if err := json.Unmarshal(allowedPins, &c.pins); err != nil {
		return nil, fmt.Errorf("allowed.json: %w", err)
	}
	for _, t := range c.tests {
		if _, pinned := c.pins[t.Name]; pinned == (t.Allowed != nil) {
			return nil, fmt.Errorf("allowed.json: %s must be pinned exactly when the corpus does not pin it", t.Name)
		}
	}
	if tm == tamperAllowed {
		for k, v := range c.pins {
			c.pins[k] = "0" + v[1:]
		}
		for _, t := range c.tests {
			if len(t.Allowed) > 0 {
				t.Allowed = t.Allowed[1:]
			}
		}
	}
	return c, nil
}

// check fails a report that found a violation or an assertion failure, or
// whose allowed set differs from the pinned one.
func (c *litmusCorpus) check(rep *litmus.Report) error {
	if !rep.Ok() {
		return fmt.Errorf("litmus %s: violations %v, assertion failures %v", rep.Name, rep.Violations, rep.AssertFailures)
	}
	if want, ok := c.pins[rep.Name]; ok && digest(rep.Allowed) != want {
		return fmt.Errorf("litmus %s: allowed set digest %s, pinned %s", rep.Name, digest(rep.Allowed), want)
	}
	return nil
}

// replaySeeds is a pass's 64 jitter seeds: 0, the canonical schedule, and
// 63 drawn from the workload seed.
func replaySeeds(seed uint64, pass int) []uint64 {
	r := stream(seed, uint64(pass))
	seeds := []uint64{0}
	for len(seeds) < 64 {
		seeds = append(seeds, r.next())
	}
	return seeds
}

// outcomeLines renders one test's observed outcomes, with the seeds that
// produced each, for the outcome digest.
func outcomeLines(name string, observed map[string][]uint64) []string {
	var lines []string
	for o, seeds := range observed {
		lines = append(lines, fmt.Sprintf("%s %s %v", name, o, seeds))
	}
	sort.Strings(lines)
	return lines
}

func setupReplay(seed uint64, tm tamper) (job, error) {
	c, err := loadCorpus(tm)
	if err != nil {
		return nil, err
	}
	n := len(c.tests)
	return &loopJob{op: func(i, parent int, tr *tracer, p *pass) error {
		t, seeds := c.tests[i%n], replaySeeds(seed, i/n)
		var rep *litmus.Report
		var err error
		if tr == nil {
			rep, err = litmus.Run(t, seeds)
		} else {
			rep, err = tracedReplay(t, seeds, i, parent, tr)
		}
		if err != nil {
			return err
		}
		p.counts["states"] += float64(rep.States)
		p.counts["pruned"] += float64(rep.Pruned)
		p.counts["sim_runs"] += float64(len(seeds))
		for _, l := range outcomeLines(t.Name, rep.Observed) {
			p.outcomes.add(l)
		}
		return c.check(rep)
	}, kind: func(i int) int { return i % n }}, nil
}

// tracedReplay is litmus.Run as finer public calls: enumerate only, then
// one simulator run per seed, checking observed ⊆ allowed itself. It is not
// quite the same work: RunSim compiles the test on every call, where
// litmus.Run compiles it once, so the core spans include 64 compiles.
func tracedReplay(t *litmus.Test, seeds []uint64, op, parent int, tr *tracer) (*litmus.Report, error) {
	var rep *litmus.Report
	err := tr.span(parent, op, "bccheck", "litmus.RunTuned", func(int) error {
		var err error
		rep, err = litmus.RunTuned(t, nil, bccheck.Tuning{})
		return err
	})
	if err != nil {
		return nil, err
	}
	allowed := map[string]bool{}
	for _, a := range rep.Allowed {
		allowed[a] = true
	}
	rep.Seeds = len(seeds)
	for _, s := range seeds {
		var out string
		err := tr.span(parent, op, "core", "litmus.Test.RunSim", func(int) error {
			var err error
			out, err = t.RunSim(s)
			return err
		})
		if err != nil {
			return nil, err
		}
		if !allowed[out] && len(rep.Observed[out]) == 0 {
			rep.Violations = append(rep.Violations, out)
		}
		rep.Observed[out] = append(rep.Observed[out], s)
	}
	if len(rep.Violations) > 0 {
		return rep, fmt.Errorf("litmus %s: observed outcomes outside the allowed set: %s",
			t.Name, strings.Join(rep.Violations, "; "))
	}
	return rep, nil
}

func setupEnumerate(seed uint64, tm tamper) (job, error) {
	c, err := loadCorpus(tm)
	if err != nil {
		return nil, err
	}
	order := &passOrder{seed: seed, n: len(c.tests)}
	return &loopJob{op: func(i, parent int, tr *tracer, p *pass) error {
		t := c.tests[order.at(i)]
		var rep *litmus.Report
		err := tr.span(parent, i, "bccheck", "litmus.RunTuned", func(int) error {
			var err error
			rep, err = litmus.RunTuned(t, nil, bccheck.Tuning{})
			return err
		})
		if err != nil {
			return err
		}
		p.counts["states"] += float64(rep.States)
		p.counts["pruned"] += float64(rep.Pruned)
		return c.check(rep)
	}, kind: order.at}, nil
}
