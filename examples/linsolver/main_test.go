package main

import (
	"math"
	"testing"

	"ssmp"
)

const (
	testProcs = 8
	testIters = 12
	// hostTol bounds the distance between the machine's solution and the
	// host reference. The machine runs *chaotic* Jacobi — the barrier
	// separates iterations, but within one iteration a slow reader may
	// observe a fast writer's fresh value — so its iterates track, and
	// converge at least as fast as, the synchronous host iteration
	// without being bit-identical to it.
	hostTol = 1e-3
)

// hostJacobi runs synchronous Jacobi on the host with the workload's
// coefficients (a_ii = n+1, a_ij = 1/(1+|i-j|), b_i = i+1), the
// reference the simulated solvers must agree with to within hostTol.
func hostJacobi(n, iters int) []float64 {
	a := func(i, j int) float64 {
		if i == j {
			return float64(n + 1)
		}
		d := i - j
		if d < 0 {
			d = -d
		}
		return 1.0 / float64(1+d)
	}
	x := make([]float64, n)
	for it := 0; it < iters; it++ {
		nx := make([]float64, n)
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				if j != i {
					sum += a(i, j) * x[j]
				}
			}
			nx[i] = (float64(i+1) - sum) / a(i, i)
		}
		x = nx
	}
	return x
}

// machineX reads the solved vector back out of simulated memory.
func machineX(m *ssmp.Machine, ls *ssmp.LinSolver) []float64 {
	ls.Verify(m) // binds the solver to the machine's geometry
	x := make([]float64, ls.N)
	for i := range x {
		x[i] = math.Float64frombits(uint64(m.ReadMemory(ls.XAddr(i))))
	}
	return x
}

func maxDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestSchemesMatchHostReference: every Table 2 scheme solves the same
// system the host does — small residual, and elementwise agreement with
// the synchronous host iterates.
func TestSchemesMatchHostReference(t *testing.T) {
	want := hostJacobi(testProcs, testIters)
	for _, s := range schemes {
		m, ls, _, err := run(s, testProcs, testIters, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if r := ls.Verify(m); r > hostTol {
			t.Errorf("%s: residual %g, want < %g", s.name, r, hostTol)
		}
		if d := maxDiff(machineX(m, ls), want); d > hostTol {
			t.Errorf("%s: solution is %g from the host reference, want < %g", s.name, d, hostTol)
		}
	}
}

// TestJitterDeterminism: jitter permutes same-cycle event order, which
// may move cycle counts but never pushes the solution away from the
// reference; repeating a seed reproduces the run exactly.
func TestJitterDeterminism(t *testing.T) {
	want := hostJacobi(testProcs, testIters)
	var baseline ssmp.Result
	var baseX []float64
	for trial, jitter := range []uint64{5, 5, 99} {
		m, ls, res, err := run(schemes[0], testProcs, testIters, jitter, 0)
		if err != nil {
			t.Fatalf("jitter=%d: %v", jitter, err)
		}
		got := machineX(m, ls)
		if d := maxDiff(got, want); d > hostTol {
			t.Errorf("jitter=%d: solution is %g from the host reference, want < %g", jitter, d, hostTol)
		}
		switch trial {
		case 0:
			baseline, baseX = res, got
		case 1:
			if res.Cycles != baseline.Cycles || res.Messages != baseline.Messages {
				t.Errorf("same seed diverged: %d cycles/%d msgs vs %d cycles/%d msgs",
					res.Cycles, res.Messages, baseline.Cycles, baseline.Messages)
			}
			if maxDiff(got, baseX) != 0 {
				t.Errorf("same seed computed a different solution")
			}
		}
	}
}

// TestPDESWorkerEquality: under lane mode the run is bit-identical at
// every SimWorkers >= 1 — cycles, traffic, and the solution word-for-word.
// (The serial engine is a different scheduler; the reference is
// SimWorkers=1.)
func TestPDESWorkerEquality(t *testing.T) {
	mRef, lsRef, rRef, err := run(schemes[0], testProcs, testIters, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	xRef := machineX(mRef, lsRef)
	if d := maxDiff(xRef, hostJacobi(testProcs, testIters)); d > hostTol {
		t.Errorf("lane mode solution is %g from the host reference, want < %g", d, hostTol)
	}
	for _, workers := range []int{2, 4} {
		m, ls, res, err := run(schemes[0], testProcs, testIters, 3, workers)
		if err != nil {
			t.Fatalf("SimWorkers=%d: %v", workers, err)
		}
		if res.Cycles != rRef.Cycles || res.Messages != rRef.Messages {
			t.Errorf("SimWorkers=%d: %d cycles/%d msgs, 1 worker %d cycles/%d msgs",
				workers, res.Cycles, res.Messages, rRef.Cycles, rRef.Messages)
		}
		x := machineX(m, ls)
		for i := range xRef {
			if x[i] != xRef[i] {
				t.Errorf("SimWorkers=%d: x[%d] = %v, 1 worker %v", workers, i, x[i], xRef[i])
			}
		}
	}
}
