package litmus

// Error-path and API-surface tests: spec validation, outcome
// canonicalization, the axiomatic enumerator wrapper, single-run entry
// points, corpus lookup, and violation explanation.

import (
	"reflect"
	"strings"
	"testing"
)

// simpleTest is a two-proc message-passing skeleton used as a valid base.
func simpleTest() *Test {
	return &Test{
		Name: "mp",
		Procs: [][]Stmt{
			{{Op: "write-global", Loc: "x", Val: 1}, {Op: "write-global", Loc: "y", Val: 1}},
			{{Op: "read", Loc: "y"}, {Op: "read", Loc: "x"}},
		},
	}
}

// TestCompileRejections walks every validation error in compile and canon:
// each bad test must fail with a message naming the problem.
func TestCompileRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Test)
		want string
	}{
		{"no name", func(c *Test) { c.Name = "" }, "needs a name"},
		{"no procs", func(c *Test) { c.Procs = nil }, "need 1-8 procs"},
		{"too many procs", func(c *Test) {
			for len(c.Procs) <= 8 {
				c.Procs = append(c.Procs, []Stmt{{Op: "read", Loc: "x"}})
			}
		}, "need 1-8 procs"},
		{"unknown op", func(c *Test) { c.Procs[0][0].Op = "swizzle" }, `unknown op "swizzle"`},
		{"barrier without name", func(c *Test) {
			c.Procs[0] = append(c.Procs[0], Stmt{Op: "barrier"})
			c.Procs[1] = append(c.Procs[1], Stmt{Op: "barrier"})
		}, "barrier needs a name"},
		{"missing loc", func(c *Test) { c.Procs[0][0].Loc = "" }, "needs a loc"},
		{"word out of block", func(c *Test) {
			c.Locations = map[string]LocSpec{"x": {Block: 0, Word: machineBlockWords}}
		}, "outside block"},
		{"negative block", func(c *Test) {
			c.Locations = map[string]LocSpec{"x": {Block: -1}}
		}, "outside [0,"},
		{"block collides with barriers", func(c *Test) {
			c.Locations = map[string]LocSpec{"x": {Block: barrierBlockBase}}
		}, "outside [0,"},
		{"too many blocks", func(c *Test) {
			for i := 0; i < 17; i++ {
				c.Init = map[string]uint64{}
				for j := 0; j < 17; j++ {
					c.Init[strings.Repeat("v", j+1)] = 0
				}
			}
		}, "blocks (max 16)"},
		{"coinciding locations", func(c *Test) {
			c.Locations = map[string]LocSpec{"x": {Block: 1}, "y": {Block: 1}}
		}, "coincide"},
		{"register reuse", func(c *Test) {
			c.Procs[1][0].Reg = "r"
			c.Procs[1][1].Reg = "r"
		}, "reuses register"},
		{"register on write", func(c *Test) { c.Procs[0][0].Reg = "r9" }, "does not fill a register"},
		{"val on read", func(c *Test) { c.Procs[1][0].Val = 5 }, "P1[0]: read takes no val"},
		{"loc on flush", func(c *Test) {
			c.Procs[0] = append(c.Procs[0], Stmt{Op: "flush", Loc: "x"})
		}, "P0[2]: flush takes no loc"},
		{"val on write-lock", func(c *Test) {
			c.Procs[0] = append([]Stmt{{Op: "write-lock", Loc: "l", Val: 1}}, c.Procs[0]...)
		}, "P0[0]: write-lock takes no val"},
		{"val on unlock", func(c *Test) {
			c.Procs[0] = append(c.Procs[0], Stmt{Op: "write-lock", Loc: "l"}, Stmt{Op: "unlock", Loc: "l", Val: 2})
		}, "P0[3]: unlock takes no val"},
		{"unbalanced lock", func(c *Test) {
			c.Procs[0] = append(c.Procs[0], Stmt{Op: "unlock", Loc: "l"})
		}, "litmus mp:"},
		{"assert bad token", func(c *Test) { c.MustAllow = []string{"nonsense"} }, "bad token"},
		{"assert bad value", func(c *Test) { c.MustAllow = []string{"P1:r0=ab P1:r1=0"} }, "bad value"},
		{"assert duplicate token", func(c *Test) {
			c.MustAllow = []string{"P1:r0=1 P1:r0=2"}
		}, "duplicate token"},
		{"assert missing register", func(c *Test) { c.MustAllow = []string{"P1:r0=1"} }, "missing P1:r1"},
		{"assert missing observed", func(c *Test) {
			c.Observe = []string{"x"}
			c.MustAllow = []string{"P1:r0=1 P1:r1=1"}
		}, "missing x"},
		{"assert extra token", func(c *Test) {
			c.MustAllow = []string{"P1:r0=1 P1:r1=1 q=3"}
		}, "test has 2"},
		{"must_forbid malformed", func(c *Test) { c.MustForbid = []string{"=1"} }, "must_forbid[0]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := simpleTest()
			tc.mut(c)
			_, _, err := c.Enumerate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestParseRejectsTrailingData: only whitespace may follow the test's
// object, so a file cannot carry data Parse silently drops.
func TestParseRejectsTrailingData(t *testing.T) {
	const test = `{"name":"a","procs":[[{"op":"read","loc":"x"}]]}`
	if _, err := Parse([]byte(" \t" + test + "\n\r\n ")); err != nil {
		t.Fatalf("a test between whitespace: %v", err)
	}
	for _, in := range []string{
		test + ` garbage`,
		test + ` {"this is": "ignored"`,
		test + test,
		test + ` }`,
	} {
		if _, err := Parse([]byte(in)); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

// TestEnumerateWitnesses checks the exported enumerator wrapper: the
// message-passing test's allowed set is non-empty, every outcome carries a
// witness trace, and the stale read r0=1,r1=0 is admitted (BC allows it —
// the write buffer can hold x past y's update).
func TestEnumerateWitnesses(t *testing.T) {
	allowed, states, err := simpleTest().Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if states <= 0 || len(allowed) == 0 {
		t.Fatalf("empty enumeration: %d states, %d outcomes", states, len(allowed))
	}
	for out, wit := range allowed {
		if len(wit) == 0 {
			t.Fatalf("outcome %q has no witness", out)
		}
	}
	if _, ok := allowed["P1:r0=1 P1:r1=1"]; !ok {
		t.Fatalf("in-order outcome missing from allowed set: %v", allowed)
	}
}

// TestRunSimSingle runs one simulator execution through the exported entry
// point and checks the canonical outcome shape against the allowed set.
func TestRunSimSingle(t *testing.T) {
	tt := simpleTest()
	out, err := tt.RunSim(0)
	if err != nil {
		t.Fatal(err)
	}
	allowed, _, err := tt.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := allowed[out]; !ok {
		t.Fatalf("RunSim outcome %q not in allowed set %v", out, allowed)
	}
	// Compile failures surface through the same entry points.
	bad := simpleTest()
	bad.Name = ""
	if _, err := bad.RunSim(0); err == nil {
		t.Fatal("RunSim accepted an invalid test")
	}
	r := &Report{Observed: map[string][]uint64{out: {0}}}
	if _, err := ExplainViolation(bad, r, out); err == nil {
		t.Fatal("ExplainViolation accepted an invalid test")
	}
}

// TestLoadCorpus exercises corpus lookup by name, both arms.
func TestLoadCorpus(t *testing.T) {
	all, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("empty corpus")
	}
	got, err := Load(all[0].Name)
	if err != nil || got.Name != all[0].Name {
		t.Fatalf("Load(%q) = %v, %v", all[0].Name, got, err)
	}
	if _, err := Load("no-such-test"); err == nil || !strings.Contains(err.Error(), "no corpus test") {
		t.Fatalf("want lookup error, got %v", err)
	}
}

// TestLoadMatchesCorpus: Load, which reads one file, returns exactly the
// test that the whole-corpus readers return under that name, for every
// hand-written and generated test.
func TestLoadMatchesCorpus(t *testing.T) {
	hand, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	gen, err := Generated()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range append(hand, gen...) {
		got, err := Load(want.Name)
		if err != nil {
			t.Fatalf("Load(%q): %v", want.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Load(%q) differs from the corpus entry", want.Name)
		}
	}
}

// TestLoadRejectsPaths: Load takes a bare test name, never a path, so
// neither a parent reference nor the generated directory names a test.
func TestLoadRejectsPaths(t *testing.T) {
	gen, err := Generated()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"", "..", "../sb", "./sb", "sb/", "/sb", "testdata/sb", "generated/" + gen[0].Name,
	} {
		if _, err := Load(name); err == nil || !strings.Contains(err.Error(), "single path element") {
			t.Errorf("Load(%q): want a path error, got %v", name, err)
		}
	}
	for _, name := range []string{".", "sb.json", "generated", "README", "no-such-test"} {
		if _, err := Load(name); err == nil || !strings.Contains(err.Error(), "no corpus test") {
			t.Errorf("Load(%q): want a lookup error, got %v", name, err)
		}
	}
}

// TestSummaryFail checks the FAIL rendering arm of Report.Summary.
func TestSummaryFail(t *testing.T) {
	r := &Report{Name: "t", Violations: []string{"P0:r0=9"}}
	if s := r.Summary(); !strings.Contains(s, "FAIL") {
		t.Fatalf("summary of violating report lacks FAIL: %q", s)
	}
	if (&Report{Name: "t"}).Ok() != true {
		t.Fatal("empty report should be ok")
	}
}

// TestAssertFailuresReported checks the sweep's assertion arms: a
// must_allow outcome the model excludes and a must_forbid outcome it
// admits both surface as assertion failures, not violations.
func TestAssertFailuresReported(t *testing.T) {
	tt := simpleTest()
	tt.MustAllow = []string{"P1:r0=7 P1:r1=7"}  // never produced
	tt.MustForbid = []string{"P1:r0=1 P1:r1=1"} // always allowed
	rep, err := Run(tt, Seeds(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("unexpected violations: %v", rep.Violations)
	}
	if len(rep.AssertFailures) != 2 {
		t.Fatalf("want 2 assertion failures, got %v", rep.AssertFailures)
	}
	if rep.Ok() {
		t.Fatal("report with assertion failures must not be ok")
	}
	if !strings.Contains(rep.AssertFailures[0], "must_allow") ||
		!strings.Contains(rep.AssertFailures[1], "must_forbid") {
		t.Fatalf("assertion failures misattributed: %v", rep.AssertFailures)
	}
}

// TestExplainViolation renders an execution graph for an observed outcome
// and rejects outcomes the sweep never saw.
func TestExplainViolation(t *testing.T) {
	tt := simpleTest()
	rep, err := Run(tt, Seeds(4))
	if err != nil {
		t.Fatal(err)
	}
	var seen string
	for out := range rep.Observed {
		seen = out
		break
	}
	text, err := ExplainViolation(tt, rep, seen)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"seed", "allowed set", "execution graph"} {
		if !strings.Contains(text, want) {
			t.Fatalf("explanation missing %q:\n%s", want, text)
		}
	}
	if _, err := ExplainViolation(tt, rep, "P1:r0=42 P1:r1=42"); err == nil ||
		!strings.Contains(err.Error(), "was not observed") {
		t.Fatalf("want not-observed error, got %v", err)
	}
}

// TestFuzzStatsRates pins the throughput formatter, including the
// zero-elapsed guard.
func TestFuzzStatsRates(t *testing.T) {
	st := &FuzzStats{Tested: 10, States: 1000}
	if s := st.Rates(); !strings.Contains(s, "programs/sec") {
		t.Fatalf("bad rates string %q", s)
	}
}
