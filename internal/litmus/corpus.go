package litmus

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// The seed corpus ships inside the binary so the CLI, the daemon, and the
// tests all run the same tests without a working directory.
//
//go:embed testdata/*.json
var corpusFS embed.FS

// Corpus returns the embedded tests, sorted by name.
func Corpus() ([]*Test, error) { return loadDir(corpusFS, "testdata") }

// The farm-generated corpus ships alongside the hand-written one: each
// file is the canonical representative of one behavioral equivalence
// class, tagged with its axiom-coverage vector and pinned allowed set.
//
//go:embed testdata/generated
var generatedFS embed.FS

// Generated returns the embedded farm-generated tests, sorted by name.
func Generated() ([]*Test, error) { return loadDir(generatedFS, "testdata/generated") }

// loadDir parses every .json file in dir, sorted by test name.
func loadDir(fsys embed.FS, dir string) ([]*Test, error) {
	entries, err := fs.ReadDir(fsys, dir)
	if err != nil {
		return nil, err
	}
	var tests []*Test
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		t, err := parseFile(fsys, dir+"/"+e.Name())
		if err != nil {
			return nil, err
		}
		tests = append(tests, t)
	}
	sort.Slice(tests, func(i, j int) bool { return tests[i].Name < tests[j].Name })
	return tests, nil
}

func parseFile(fsys embed.FS, file string) (*Test, error) {
	data, err := fs.ReadFile(fsys, file)
	if err != nil {
		return nil, err
	}
	t, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path.Base(file), err)
	}
	return t, nil
}

// WriteGeneratedCorpus replaces the generated corpus in dir: stale
// g*.json files are removed, and each test is written to <name>.json.
func WriteGeneratedCorpus(dir string, tests []*Test) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	old, err := filepath.Glob(filepath.Join(dir, "g*.json"))
	if err != nil {
		return err
	}
	for _, f := range old {
		if err := os.Remove(f); err != nil {
			return err
		}
	}
	for _, t := range tests {
		data, err := json.MarshalIndent(t, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(filepath.Join(dir, t.Name+".json"), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Load returns the embedded test with the given name, reading
// testdata/<name>.json if it exists and testdata/generated/<name>.json
// otherwise. Only that one file is parsed, so every file's name field
// must equal its file name (TestCorpusNamesMatchFiles pins this).
func Load(name string) (*Test, error) {
	if !fs.ValidPath(name) || strings.Contains(name, "/") {
		return nil, fmt.Errorf("litmus: test name %q is not a single path element", name)
	}
	t, err := parseFile(corpusFS, "testdata/"+name+".json")
	if errors.Is(err, fs.ErrNotExist) {
		t, err = parseFile(generatedFS, "testdata/generated/"+name+".json")
	}
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("litmus: no corpus test named %q", name)
	}
	return t, err
}
