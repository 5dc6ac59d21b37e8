package server

// The litmus endpoint: POST /v1/litmus cross-validates litmus tests
// (embedded corpus by name, inline, or a whole corpus batch) through the
// axiomatic enumerator and a jitter-seed sweep of the simulator, reusing
// the daemon's cache, dedup, and worker pool; GET /v1/litmus lists the
// corpus.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"ssmp/internal/litmus"
)

// LitmusSpec is the canonical specification of a litmus job.
type LitmusSpec struct {
	// Name selects an embedded corpus test. Mutually exclusive with Test
	// and Batch.
	Name string `json:"name,omitempty"`
	// Test is an inline test in the litmus JSON format. Normalize replaces
	// it with the parsed test's canonical encoding so equivalent inline
	// bodies share a cache key.
	Test json.RawMessage `json:"test,omitempty"`
	// Batch selects a whole embedded test set — "corpus" (hand-written),
	// "generated" (the farm corpus), or "all" — run as one job through
	// the pool with a per-set summary result. Mutually exclusive with
	// Name and Test.
	Batch string `json:"batch,omitempty"`
	// Seeds is how many jitter seeds to sweep (default 64; batches
	// default to 16 since they multiply it by the set size).
	Seeds int `json:"seeds"`

	parsed *litmus.Test
	batch  []*litmus.Test
}

// maxLitmusSeeds caps the sweep: each seed is a whole machine run.
const maxLitmusSeeds = 4096

// Normalize applies defaults, resolves the test or batch, and validates.
func (s *LitmusSpec) Normalize() error {
	set := 0
	for _, has := range []bool{s.Name != "", s.Test != nil, s.Batch != ""} {
		if has {
			set++
		}
	}
	if set > 1 {
		return fmt.Errorf("name, test, and batch are mutually exclusive")
	}
	if s.Seeds == 0 {
		if s.Batch != "" {
			s.Seeds = 16
		} else {
			s.Seeds = 64
		}
	}
	if s.Seeds < 1 || s.Seeds > maxLitmusSeeds {
		return fmt.Errorf("seeds must be in [1,%d], got %d", maxLitmusSeeds, s.Seeds)
	}
	switch {
	case s.Name != "":
		t, err := litmus.Load(s.Name)
		if err != nil {
			return err
		}
		s.parsed = t
	case s.Test != nil:
		t, err := litmus.Parse(s.Test)
		if err != nil {
			return err
		}
		canon, err := json.Marshal(t)
		if err != nil {
			return fmt.Errorf("canonicalizing test: %w", err)
		}
		s.parsed, s.Test = t, canon
	case s.Batch != "":
		tests, err := loadBatch(s.Batch)
		if err != nil {
			return err
		}
		s.batch = tests
	default:
		return fmt.Errorf("need a corpus test name, an inline test, or a batch")
	}
	return nil
}

// loadBatch resolves a batch selector to its test set.
func loadBatch(name string) ([]*litmus.Test, error) {
	switch name {
	case "corpus":
		return litmus.Corpus()
	case "generated":
		return litmus.Generated()
	case "all":
		hand, err := litmus.Corpus()
		if err != nil {
			return nil, err
		}
		gen, err := litmus.Generated()
		if err != nil {
			return nil, err
		}
		return append(hand, gen...), nil
	default:
		return nil, fmt.Errorf("batch must be corpus, generated, or all, got %q", name)
	}
}

// Key returns the spec's content address. Call Normalize first.
func (s *LitmusSpec) Key() string { return specKey("litmus", s) }

// LitmusBatchRow is one test's summary inside a batch result.
type LitmusBatchRow struct {
	Name           string   `json:"name"`
	Ok             bool     `json:"ok"`
	Allowed        int      `json:"allowed"`
	Observed       int      `json:"observed"`
	States         int      `json:"states"`
	Coverage       []string `json:"coverage,omitempty"`
	Violations     []string `json:"violations,omitempty"`
	AssertFailures []string `json:"assert_failures,omitempty"`
}

// LitmusBatchReport is the result of a batch job.
type LitmusBatchReport struct {
	Batch  string `json:"batch"`
	Total  int    `json:"total"`
	Failed int    `json:"failed"`
	States int    `json:"states"`
	Seeds  int    `json:"seeds"`
	// AxiomCoverage counts tests per §2 axiom family, from the corpus
	// files' stored coverage tags.
	AxiomCoverage map[string]int   `json:"axiom_coverage"`
	EnumNS        int64            `json:"enum_ns"`
	Rows          []LitmusBatchRow `json:"rows"`
}

// run cross-validates the test or batch.
func (s *LitmusSpec) run(ctx context.Context) (any, error) {
	if s.batch == nil {
		return litmus.RunSerial(s.parsed, litmus.Seeds(s.Seeds))
	}
	out := &LitmusBatchReport{Batch: s.Batch, Total: len(s.batch), Seeds: s.Seeds,
		AxiomCoverage: map[string]int{}}
	for _, t := range s.batch {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep, err := litmus.RunSerial(t, litmus.Seeds(s.Seeds))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.Name, err)
		}
		if !rep.Ok() {
			out.Failed++
		}
		out.States += rep.States
		out.EnumNS += rep.EnumNS
		for _, ax := range t.Coverage {
			out.AxiomCoverage[ax]++
		}
		out.Rows = append(out.Rows, LitmusBatchRow{
			Name:           rep.Name,
			Ok:             rep.Ok(),
			Allowed:        len(rep.Allowed),
			Observed:       len(rep.Observed),
			States:         rep.States,
			Coverage:       t.Coverage,
			Violations:     rep.Violations,
			AssertFailures: rep.AssertFailures,
		})
	}
	return out, nil
}

func (s *Server) handleLitmusPost(w http.ResponseWriter, r *http.Request) {
	var req struct {
		LitmusSpec
		TimeoutMS int64 `json:"timeout_ms"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if err := req.LitmusSpec.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid spec: %v", err)
		return
	}
	key := req.LitmusSpec.Key()
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMS))
	defer cancel()

	started := time.Now()
	res, cached, status, err := s.execute(ctx, key, func(ctx context.Context) (any, error) {
		out, err := req.LitmusSpec.run(ctx)
		if err != nil {
			return nil, err
		}
		s.litmusExecuted.Add(1)
		switch rep := out.(type) {
		case *litmus.Report:
			s.litmusStates.Add(uint64(rep.States))
			s.litmusBusyNS.Add(rep.EnumNS)
		case *LitmusBatchReport:
			s.litmusStates.Add(uint64(rep.States))
			s.litmusBusyNS.Add(rep.EnumNS)
		}
		return out, nil
	})
	if err != nil {
		s.jobError(w, r, status, key, err)
		return
	}
	s.litmusJobs.Add(1)
	if cached {
		s.litmusCacheHits.Add(1)
	}
	s.logf("ssmpd: litmus %s cached=%v elapsed=%s", key[:22], cached, time.Since(started))
	writeJSON(w, http.StatusOK, JobResponse{
		Key:       key,
		Cached:    cached,
		ElapsedMS: time.Since(started).Milliseconds(),
		Result:    res,
	})
}

// litmusListEntry is one row of GET /v1/litmus.
type litmusListEntry struct {
	Name     string   `json:"name"`
	Doc      string   `json:"doc"`
	Procs    int      `json:"procs"`
	Coverage []string `json:"coverage,omitempty"`
}

func (s *Server) handleLitmusList(w http.ResponseWriter, r *http.Request) {
	set := r.URL.Query().Get("set")
	if set == "" {
		set = "corpus"
	}
	tests, err := loadBatch(set)
	if err != nil {
		writeError(w, http.StatusBadRequest, "loading corpus: %v", err)
		return
	}
	out := make([]litmusListEntry, 0, len(tests))
	for _, t := range tests {
		out = append(out, litmusListEntry{Name: t.Name, Doc: t.Doc, Procs: len(t.Procs), Coverage: t.Coverage})
	}
	writeJSON(w, http.StatusOK, map[string]any{"tests": out})
}
