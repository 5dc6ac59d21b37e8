package harness

// Fault-plane integration: a sweep over a lossy fabric still assembles
// complete figures, and a failing cell's error names the seed and fault
// configuration so the run is reproducible from the message alone.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"ssmp/internal/network"
)

func chaosOptions() Options {
	o := smallOptions()
	o.Procs = []int{2, 4}
	o.Faults = network.FaultConfig{
		Seed:  9,
		Rates: network.FaultRates{Drop: 0.02, Dup: 0.02, Delay: 0.05},
	}
	return o
}

// TestFigureSurvivesFaults runs Figure 4's sweep over a faulty
// interconnect: the reliable transport must deliver every cell, so the
// figure comes out complete and finite.
func TestFigureSurvivesFaults(t *testing.T) {
	f, err := chaosOptions().FigureByNumber(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Series {
		if len(s.Points) != 2 {
			t.Fatalf("series %s incomplete under faults: %d points", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Fatalf("series %s has non-positive cycles at procs=%v", s.Name, p.X)
			}
		}
	}
}

// TestSweepErrorNamesSeedAndFaults cancels a sweep and checks the error
// message carries the workload seed and the fault configuration.
func TestSweepErrorNamesSeedAndFaults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := chaosOptions().WithContext(ctx)
	o.Seed = 123

	for _, n := range []int{4, 6} {
		_, err := o.FigureByNumber(n)
		if err == nil {
			t.Fatalf("figure %d: cancelled sweep did not fail", n)
		}
		msg := err.Error()
		if !strings.Contains(msg, "seed=123") {
			t.Fatalf("figure %d error lacks the failing seed: %q", n, msg)
		}
		if !strings.Contains(msg, "faults{seed=9") {
			t.Fatalf("figure %d error lacks the fault config: %q", n, msg)
		}
	}
}

// TestSweepErrorFaultsOff pins the fault-free rendering: errors from a
// reliable-fabric sweep say so rather than omitting the field.
func TestSweepErrorFaultsOff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := smallOptions().WithContext(ctx)
	_, err := o.FigureByNumber(4)
	if err == nil {
		t.Fatal("cancelled sweep did not fail")
	}
	if !strings.Contains(err.Error(), "faults=off") {
		t.Fatalf("fault-free sweep error should say faults=off: %q", err)
	}
}

// TestCancelledSweepsFail pins that every sweep, the tables and the
// extension figures too, stops with the context's error under a cancelled
// context instead of panicking or running to completion.
func TestCancelledSweepsFail(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := smallOptions().WithContext(ctx)
	for name, run := range map[string]func() error{
		"utilization": func() error { _, err := o.UtilizationFigure(64); return err },
		"table 2":     func() error { _, err := o.Table2Sim(8, 10); return err },
		"table 3":     func() error { _, err := o.Table3Sim(8); return err },
		"lock zoo":    func() error { _, _, err := o.SyncZooLockFigures(); return err },
		"barrier zoo": func() error { _, err := o.SyncZooBarrierFigure(); return err },
		"kv":          func() error { _, _, _, err := o.KVFigures(); return err },
	} {
		if err := run(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
}
