package bccheck

import (
	"errors"
	"reflect"
	"regexp"
	"testing"
)

// symProgs returns programs with known automorphism-group orders.
func symProgs() map[string]struct {
	prog Program
	syms int // non-identity group elements
} {
	x := Loc{Block: 0}
	y := Loc{Block: 1}
	return map[string]struct {
		prog Program
		syms int
	}{
		"sb-swap": {Program{
			{{Op: OpWriteGlobal, Loc: x, Val: 1}, {Op: OpReadGlobal, Loc: y}},
			{{Op: OpWriteGlobal, Loc: y, Val: 1}, {Op: OpReadGlobal, Loc: x}},
		}, 1},
		"three-writers": {Program{
			{{Op: OpWriteGlobal, Loc: x, Val: 1}, {Op: OpReadGlobal, Loc: x}},
			{{Op: OpWriteGlobal, Loc: x, Val: 1}, {Op: OpReadGlobal, Loc: x}},
			{{Op: OpWriteGlobal, Loc: x, Val: 1}, {Op: OpReadGlobal, Loc: x}},
		}, 5},
		"iriw-pairs": {Program{
			{{Op: OpWriteGlobal, Loc: x, Val: 1}},
			{{Op: OpWriteGlobal, Loc: y, Val: 1}},
			{{Op: OpReadGlobal, Loc: x}, {Op: OpReadGlobal, Loc: y}},
			{{Op: OpReadGlobal, Loc: y}, {Op: OpReadGlobal, Loc: x}},
		}, 1},
		"asymmetric-values": {Program{
			{{Op: OpWriteGlobal, Loc: x, Val: 1}, {Op: OpReadGlobal, Loc: y}},
			{{Op: OpWriteGlobal, Loc: y, Val: 2}, {Op: OpReadGlobal, Loc: x}},
		}, 0},
	}
}

// TestComputeSymsGroupOrder pins the automorphism groups of known shapes.
func TestComputeSymsGroupOrder(t *testing.T) {
	for name, tc := range symProgs() {
		c, err := compile(tc.prog, Options{})
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		if len(c.syms) != tc.syms {
			t.Errorf("%s: computed %d non-identity automorphisms, want %d", name, len(c.syms), tc.syms)
		}
	}
}

// TestObserveBreaksSymmetry: observing one of two otherwise-swappable
// locations must kill the automorphism — the outcome vocabulary is not
// invariant under the swap.
func TestObserveBreaksSymmetry(t *testing.T) {
	prog := symProgs()["sb-swap"].prog
	c, err := compile(prog, Options{Observe: []Loc{{Block: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.syms) != 0 {
		t.Errorf("observe {x} left %d automorphisms, want 0", len(c.syms))
	}
	// Observing BOTH swapped locations restores it: the observe multiset
	// is preserved (positions permute).
	c, err = compile(prog, Options{Observe: []Loc{{Block: 0}, {Block: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.syms) != 1 {
		t.Errorf("observe {x,y} computed %d automorphisms, want 1", len(c.syms))
	}
}

// TestSymmetryMatrix is the combos net: every DisablePOR ×
// DisableSymmetry configuration agrees on outcome keys, and lists the
// outcomes in strictly increasing Key order.
func TestSymmetryMatrix(t *testing.T) {
	for name, tc := range symProgs() {
		var ref []string
		for _, por := range []bool{false, true} {
			for _, sym := range []bool{false, true} {
				opts := Options{Tuning: Tuning{DisablePOR: por, DisableSymmetry: sym}}
				res, err := Enumerate(tc.prog, opts)
				if err != nil {
					t.Fatalf("%s por=%v sym=%v: %v", name, por, sym, err)
				}
				for i := 1; i < len(res.Outcomes); i++ {
					if prev, k := res.Outcomes[i-1].Key(), res.Outcomes[i].Key(); prev >= k {
						t.Errorf("%s por=%v sym=%v: outcome %q sorts after %q", name, por, sym, k, prev)
					}
				}
				if ref == nil {
					ref = res.Keys()
				} else if !reflect.DeepEqual(res.Keys(), ref) {
					t.Errorf("%s por=%v sym=%v: keys %v, want %v", name, por, sym, res.Keys(), ref)
				}
			}
		}
	}
}

// TestSymmetryReduces pins the win: on a fully symmetric 3-writer program
// the quotient explores at least 2x fewer states (the orbit order is 6).
func TestSymmetryReduces(t *testing.T) {
	prog := symProgs()["three-writers"].prog
	on, err := Enumerate(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Enumerate(prog, Options{Tuning: Tuning{DisableSymmetry: true}})
	if err != nil {
		t.Fatal(err)
	}
	if on.States*2 > off.States {
		t.Errorf("symmetry reduced %d states only to %d; want >= 2x", off.States, on.States)
	}
	t.Logf("three-writers: %d states full, %d under symmetry", off.States, on.States)
}

// TestStateLimitPrefixUnderSymmetry: the canonical prefix attached to a
// state-limit error renders in the program's own numbering whether or not
// symmetry renamed states internally.
func TestStateLimitPrefixUnderSymmetry(t *testing.T) {
	prog := symProgs()["three-writers"].prog
	label := regexp.MustCompile(`^P[0-2][:']`)
	for _, tune := range []Tuning{{}, {DisableSymmetry: true}} {
		_, err := Enumerate(prog, Options{MaxStates: 4, Tuning: tune})
		if !errors.Is(err, ErrStateLimit) {
			t.Fatalf("%+v: want ErrStateLimit, got %v", tune, err)
		}
		var sle *StateLimitError
		if !errors.As(err, &sle) {
			t.Fatalf("%+v: want *StateLimitError, got %T", tune, err)
		}
		if len(sle.Prefix) == 0 {
			t.Fatalf("%+v: empty canonical prefix", tune)
		}
		for _, l := range sle.Prefix {
			if !label.MatchString(l) {
				t.Errorf("%+v: prefix label %q not in original numbering", tune, l)
			}
		}
	}
}

// TestOrigDescInverseMapping: rendering a canonical-numbering descriptor
// through a cumulative permutation view must name the ORIGINAL proc and
// block. Exercises origDesc's inverse-map path directly.
func TestOrigDescInverseMapping(t *testing.T) {
	prog := symProgs()["sb-swap"].prog
	c, err := compile(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.syms) != 1 {
		t.Fatalf("want 1 automorphism, got %d", len(c.syms))
	}
	g := &c.syms[0]
	// The automorphism swaps P0<->P1 and blocks 0<->1.
	if g.pp[0] != 1 || g.pp[1] != 0 {
		t.Fatalf("unexpected proc map %v", g.pp[:2])
	}
	cv := c.composeView(0, identView())
	// A canonical-numbering step by "P0 on block 0" happened, in original
	// numbering, on P1 and block 1.
	d := sdesc{kind: sdProc, proc: 0, op: OpReadGlobal, loc: Loc{Block: 0}}
	od := c.origDesc(d, cv)
	if od.proc != 1 {
		t.Errorf("origDesc proc = %d, want 1", od.proc)
	}
	if od.loc.Block != 1 {
		t.Errorf("origDesc block = %d, want 1", od.loc.Block)
	}
	// Identity view: descriptor passes through unchanged.
	od = c.origDesc(d, identView())
	if od.proc != 0 || od.loc.Block != 0 {
		t.Errorf("identity view mangled descriptor: %+v", od)
	}
}

// TestWitnessModeDisablesSymmetry: witness requests force the full
// (unquotiented) canonical DFS, so state counts match symmetry-off and
// every outcome carries a witness.
func TestWitnessModeDisablesSymmetry(t *testing.T) {
	prog := symProgs()["sb-swap"].prog
	wit, err := Enumerate(prog, Options{Witnesses: true})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Enumerate(prog, Options{Tuning: Tuning{DisableSymmetry: true}})
	if err != nil {
		t.Fatal(err)
	}
	if wit.States != off.States {
		t.Errorf("witness mode explored %d states, symmetry-off %d", wit.States, off.States)
	}
	for _, o := range wit.Outcomes {
		if len(o.Witness) == 0 {
			t.Errorf("outcome %q missing witness", o.Key())
		}
	}
}

// TestSymmetryOrbitClosure: the symmetric store-buffer program has the
// asymmetric outcomes (0,1)/(1,0) in one orbit; the quotient exploration
// records one representative and result() must restore both.
func TestSymmetryOrbitClosure(t *testing.T) {
	prog := symProgs()["sb-swap"].prog
	res, err := Enumerate(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, k := range res.Keys() {
		keys[k] = true
	}
	// Both asymmetric outcomes must be present in the closed set.
	if !keys["0:r0=0 1:r0=1"] || !keys["0:r0=1 1:r0=0"] {
		t.Errorf("orbit closure lost an asymmetric outcome: %v", res.Keys())
	}
}
