package litmus

import (
	"encoding/json"
	"io/fs"
	"reflect"
	"testing"
)

// FuzzParse feeds Parse mutations of the committed corpus (the
// hand-written and generated test JSONs are its only seeds). Parse must not
// panic; an input it accepts must be one valid JSON value, so nothing
// after the test is dropped; a test it accepts must marshal and parse back
// to an equal test; and for a plain test of 2-4 processors, the shapes the
// farm generates, canonicalize must be a fixpoint on its canonical form:
// the same key and the same test.
func FuzzParse(f *testing.F) {
	seeds := 0
	for _, dir := range []struct {
		fsys fs.FS
		path string
	}{{corpusFS, "testdata"}, {generatedFS, "testdata/generated"}} {
		files, err := fs.Glob(dir.fsys, dir.path+"/*.json")
		if err != nil {
			f.Fatal(err)
		}
		for _, file := range files {
			data, err := fs.ReadFile(dir.fsys, file)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
			seeds++
		}
	}
	hand, err := Corpus()
	if err != nil {
		f.Fatal(err)
	}
	gen, err := Generated()
	if err != nil {
		f.Fatal(err)
	}
	if want := len(hand) + len(gen); seeds != want || seeds == 0 {
		f.Fatalf("%d seed files, want the corpus's %d", seeds, want)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lt, err := Parse(data)
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("accepted input that is not one JSON value: %q", data)
		}
		out, err := json.Marshal(lt)
		if err != nil {
			t.Fatalf("marshal an accepted test: %v", err)
		}
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("an accepted test does not parse back: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(lt, back) {
			t.Fatalf("round trip changed the test:\n%+v\n%+v", lt, back)
		}
		if n := len(lt.Procs); n < 2 || n > 4 || len(lt.Locations) > 0 || len(lt.Init) > 0 || len(lt.Observe) > 0 {
			return
		}
		canon, key, err := canonicalize(lt)
		if err != nil {
			return
		}
		again, key2, err := canonicalize(canon)
		if err != nil {
			t.Fatalf("canonical form %s does not canonicalize: %v", key, err)
		}
		if key2 != key || !reflect.DeepEqual(again, canon) {
			t.Fatalf("canonicalize is not a fixpoint:\n%s\n%s", key, key2)
		}
	})
}
