package main

import (
	"testing"

	"ssmp/internal/msg"
)

// TestManagedSubscriptionsReduceTraffic is the example's claim as a test:
// RESET-UPDATE per phase must strictly cut update-propagation traffic
// versus keep-everything subscriptions, at equal computed results.
func TestManagedSubscriptionsReduceTraffic(t *testing.T) {
	mNaive, rNaive, err := run(false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	mManaged, rManaged, err := run(true, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	propNaive := mNaive.Messages().Kind(msg.UpdateProp)
	propManaged := mManaged.Messages().Kind(msg.UpdateProp)
	if propManaged >= propNaive {
		t.Fatalf("managed %d update-props, naive %d; want a strict reduction", propManaged, propNaive)
	}
	if rNaive.Cycles == 0 || rManaged.Cycles == 0 {
		t.Fatalf("zero-cycle run: naive %d, managed %d", rNaive.Cycles, rManaged.Cycles)
	}
}

// TestRunDeterministic: with a fixed jitter seed the run is a pure
// function of its inputs — cycles and message counts repeat exactly.
func TestRunDeterministic(t *testing.T) {
	for _, jitter := range []uint64{0, 7} {
		m1, r1, err := run(true, jitter, 0)
		if err != nil {
			t.Fatal(err)
		}
		m2, r2, err := run(true, jitter, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Cycles != r2.Cycles || r1.Messages != r2.Messages {
			t.Errorf("jitter=%d: runs diverged: %d cycles/%d msgs vs %d cycles/%d msgs",
				jitter, r1.Cycles, r1.Messages, r2.Cycles, r2.Messages)
		}
		p1, p2 := m1.Messages().Kind(msg.UpdateProp), m2.Messages().Kind(msg.UpdateProp)
		if p1 != p2 {
			t.Errorf("jitter=%d: update-prop counts diverged: %d vs %d", jitter, p1, p2)
		}
	}
}

// TestPDESWorkerEquality: under the windowed parallel simulation engine
// (lane mode) timing and traffic are bit-identical at every SimWorkers
// >= 1 — the deterministic window merge, not the schedule, decides event
// order. The serial engine (SimWorkers=0) is a different scheduler
// and is allowed to differ in cycle counts, so the reference here is
// SimWorkers=1.
func TestPDESWorkerEquality(t *testing.T) {
	mRef, rRef, err := run(true, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		mPar, rPar, err := run(true, 3, workers)
		if err != nil {
			t.Fatalf("SimWorkers=%d: %v", workers, err)
		}
		if rPar.Cycles != rRef.Cycles || rPar.Messages != rRef.Messages {
			t.Errorf("SimWorkers=%d: %d cycles/%d msgs, 1 worker %d cycles/%d msgs",
				workers, rPar.Cycles, rPar.Messages, rRef.Cycles, rRef.Messages)
		}
		if p, s := mPar.Messages().Kind(msg.UpdateProp), mRef.Messages().Kind(msg.UpdateProp); p != s {
			t.Errorf("SimWorkers=%d: %d update-props, 1 worker %d", workers, p, s)
		}
	}
	// Lane mode must still show the example's headline effect.
	mNaive, _, err := run(false, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p, n := mRef.Messages().Kind(msg.UpdateProp), mNaive.Messages().Kind(msg.UpdateProp); p >= n {
		t.Errorf("lane mode: managed %d update-props, naive %d; want a strict reduction", p, n)
	}
}
