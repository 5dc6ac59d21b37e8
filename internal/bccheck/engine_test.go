package bccheck

import (
	"reflect"
	"testing"
)

// enginePrograms is a small spread of shapes: racing global writes,
// update subscriptions, locks, barriers, and the IRIW family that
// stresses propagation interleavings.
func enginePrograms() map[string]Program {
	x := Loc{Block: 0}
	y := Loc{Block: 1}
	l := Loc{Block: 2}
	return map[string]Program{
		"sb": {
			{{Op: OpWriteGlobal, Loc: x, Val: 1}, {Op: OpReadGlobal, Loc: y}},
			{{Op: OpWriteGlobal, Loc: y, Val: 1}, {Op: OpReadGlobal, Loc: x}},
		},
		"mp-update": {
			{{Op: OpWriteGlobal, Loc: x, Val: 1}, {Op: OpWriteGlobal, Loc: y, Val: 1}, {Op: OpFlush}},
			{{Op: OpReadUpdate, Loc: y}, {Op: OpReadUpdate, Loc: x}},
		},
		"iriw-update": {
			{{Op: OpWriteGlobal, Loc: x, Val: 1}},
			{{Op: OpWriteGlobal, Loc: y, Val: 1}},
			{{Op: OpReadUpdate, Loc: x}, {Op: OpReadGlobal, Loc: y}},
			{{Op: OpReadUpdate, Loc: y}, {Op: OpReadGlobal, Loc: x}},
		},
		"locked-counter": {
			{{Op: OpWriteLock, Loc: l}, {Op: OpRead, Loc: l}, {Op: OpWrite, Loc: l, Val: 1}, {Op: OpUnlock, Loc: l}},
			{{Op: OpWriteLock, Loc: l}, {Op: OpRead, Loc: l}, {Op: OpWrite, Loc: l, Val: 2}, {Op: OpUnlock, Loc: l}},
		},
		"barrier-mp": {
			{{Op: OpWriteGlobal, Loc: x, Val: 7}, {Op: OpBarrier, Loc: Loc{Block: 9}}},
			{{Op: OpBarrier, Loc: Loc{Block: 9}}, {Op: OpReadGlobal, Loc: x}, {Op: OpRead, Loc: x}},
		},
		"reset-race": {
			{{Op: OpWriteGlobal, Loc: x, Val: 1}, {Op: OpFlush}},
			{{Op: OpReadUpdate, Loc: x}, {Op: OpResetUpdate, Loc: x}, {Op: OpRead, Loc: x}},
		},
	}
}

func snapshot(t *testing.T, prog Program, opts Options) (keys []string, states, pruned int) {
	t.Helper()
	res, err := Enumerate(prog, opts)
	if err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	return res.Keys(), res.States, res.Pruned
}

// TestPORPreservesOutcomes pins POR soundness on the program spread:
// identical outcome sets, never more states than the full graph, and
// States+Pruned as a sanity bound on the work saved.
func TestPORPreservesOutcomes(t *testing.T) {
	for name, prog := range enginePrograms() {
		full := Options{Tuning: Tuning{DisablePOR: true}}
		red := Options{}
		fullK, fullS, fullP := snapshot(t, prog, full)
		redK, redS, redP := snapshot(t, prog, red)
		if !reflect.DeepEqual(redK, fullK) {
			t.Errorf("%s: POR changed outcomes: %v, want %v", name, redK, fullK)
		}
		if fullP != 0 {
			t.Errorf("%s: DisablePOR still pruned %d transitions", name, fullP)
		}
		if redS > fullS {
			t.Errorf("%s: reduced graph larger than full: %d > %d", name, redS, fullS)
		}
		if redP > 0 && redS >= fullS {
			t.Errorf("%s: pruned %d transitions but explored %d >= %d states", name, redP, redS, fullS)
		}
	}
}

// TestPORReducesIRIW pins the headline win: IRIW-class propagation
// interleavings collapse measurably under POR.
func TestPORReducesIRIW(t *testing.T) {
	prog := enginePrograms()["iriw-update"]
	_, fullS, _ := snapshot(t, prog, Options{Tuning: Tuning{DisablePOR: true}})
	_, redS, redP := snapshot(t, prog, Options{})
	// Most IRIW interleavings are genuinely observable — that is the
	// test's point — so the reduction trims the invisible tail (post-read
	// retires and deliveries), not the core diamond.
	if redS >= fullS*95/100 {
		t.Errorf("IRIW: POR explored %d of %d states; want a measurable reduction", redS, fullS)
	}
	if redP == 0 {
		t.Errorf("IRIW: POR pruned nothing")
	}
	t.Logf("IRIW: %d states full, %d reduced, %d pruned", fullS, redS, redP)
}

func TestHash128(t *testing.T) {
	seen := make(map[hkey][]byte)
	var inputs [][]byte
	for n := 0; n < 40; n++ {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(i * 7)
		}
		inputs = append(inputs, buf)
		if n > 0 {
			alt := append([]byte(nil), buf...)
			alt[n-1] ^= 1
			inputs = append(inputs, alt)
		}
	}
	for _, in := range inputs {
		k := hash128(in)
		if prev, ok := seen[k]; ok {
			t.Fatalf("collision between %v and %v", prev, in)
		}
		seen[k] = in
		if k2 := hash128(in); k2 != k {
			t.Fatalf("hash not deterministic for %v", in)
		}
	}
}
