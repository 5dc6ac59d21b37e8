package litmus

import (
	"embed"
	"io/fs"
	"strings"
	"testing"
)

// TestCorpus cross-validates every embedded litmus test: the axiomatic
// enumerator provides the allowed set, the jittered simulator provides
// observations, and the two must agree per the test's assertions.
func TestCorpus(t *testing.T) {
	tests, err := Corpus()
	if err != nil {
		t.Fatalf("corpus: %v", err)
	}
	if len(tests) < 10 {
		t.Fatalf("corpus has %d tests, want >= 10", len(tests))
	}
	seeds := Seeds(64)
	if testing.Short() {
		seeds = Seeds(8)
	}
	for _, lt := range tests {
		lt := lt
		t.Run(lt.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(lt, seeds)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !rep.Ok() {
				t.Fatalf("report not ok:\n%s", rep.Summary())
			}
			t.Log(rep.Summary())
		})
	}
}

// TestCorpusNamesMatchFiles makes sure the name field inside each JSON
// file, hand-written and generated, agrees with its file name: Load reads
// only <name>.json, so ssmplitmus run <name> and ssmpd depend on it.
func TestCorpusNamesMatchFiles(t *testing.T) {
	n := 0
	for _, dir := range []struct {
		fsys embed.FS
		path string
	}{{corpusFS, "testdata"}, {generatedFS, "testdata/generated"}} {
		entries, err := fs.ReadDir(dir.fsys, dir.path)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			want, ok := strings.CutSuffix(e.Name(), ".json")
			if !ok {
				continue
			}
			n++
			lt, err := parseFile(dir.fsys, dir.path+"/"+e.Name())
			if err != nil {
				t.Fatal(err)
			}
			if lt.Name != want {
				t.Errorf("%s/%s declares name %q", dir.path, e.Name(), lt.Name)
			}
			if dir.path == "testdata" && lt.Doc == "" {
				t.Errorf("test %s has no doc", want)
			}
		}
	}
	if n < 300 {
		t.Errorf("checked %d corpus files, want >= 300", n)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"name":"x","procs":[[{"op":"read","loc":"x","bogus":1}]]}`))
	if err == nil {
		t.Fatal("expected error for unknown field")
	}
}

func TestParseRejectsBadOp(t *testing.T) {
	_, err := Parse([]byte(`{"name":"x","procs":[[{"op":"cas","loc":"x"}]]}`))
	if err == nil || !strings.Contains(err.Error(), "op") {
		t.Fatalf("expected op error, got %v", err)
	}
}

// TestCanonNormalizesAssertionOrder checks that must_allow strings written
// in any token order match the canonical formatting of outcomes.
func TestCanonNormalizesAssertionOrder(t *testing.T) {
	src := []byte(`{
		"name": "swap",
		"procs": [
			[{"op": "write-global", "loc": "x", "val": 1},
			 {"op": "flush"},
			 {"op": "read-global", "loc": "y"}],
			[{"op": "read-global", "loc": "x"}]
		],
		"must_allow": ["P1:r0=1 P0:r0=0"]
	}`)
	lt, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rep, err := Run(lt, Seeds(4))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.Ok() {
		t.Fatalf("out-of-order assertion should normalize and pass:\n%s", rep.Summary())
	}
}

// TestViolationIsDetected feeds the runner a deliberately wrong must_forbid
// (an outcome the machine provably produces) and checks it is flagged, and
// that the flagged outcome can be explained with an execution graph.
func TestViolationIsDetected(t *testing.T) {
	src := []byte(`{
		"name": "bad",
		"procs": [
			[{"op": "write-global", "loc": "x", "val": 1},
			 {"op": "flush"},
			 {"op": "read-global", "loc": "x"}]
		],
		"must_forbid": ["P0:r0=1"]
	}`)
	lt, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	rep, err := Run(lt, Seeds(4))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Ok() {
		t.Fatal("expected assertion failure for impossible must_forbid")
	}
	if len(rep.AssertFailures) == 0 {
		t.Fatalf("expected AssertFailures, got: %s", rep.Summary())
	}
	msg, err := ExplainViolation(lt, rep, "P0:r0=1")
	if err != nil {
		t.Fatalf("ExplainViolation: %v", err)
	}
	if !strings.Contains(msg, "execution graph") {
		t.Errorf("explanation missing graph section:\n%s", msg)
	}
}
