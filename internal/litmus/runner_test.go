package litmus

import (
	"math/rand"
	"testing"

	"ssmp/internal/core"
	"ssmp/internal/mem"
	"ssmp/internal/network"
)

// simulateDo is simulate with the reference runner: the test's calls made
// by coroutine programs that call Proc.Do on each record, one program per
// processor.
func (c *compiled) simulateDo(m *core.Machine) (string, core.Result, error) {
	c.writeInit(m)
	ops := c.lowered()
	words := make([][]mem.Word, len(ops))
	progs := make([]core.Program, len(ops))
	for p, list := range ops {
		if list == nil {
			continue
		}
		progs[p] = func(pr *core.Proc) {
			for _, o := range list {
				words[p] = append(words[p], pr.Do(o))
			}
		}
	}
	res, err := m.Run(progs)
	if err != nil {
		return "", core.Result{}, err
	}
	return c.outcome(m, words), res, nil
}

// TestRunOpsMatchesPrograms runs every hand-written test and every
// generated one (a seeded subset of 40 under -short) under Seeds(64)
// twice: through core.Machine.RunOps, as every sweep does, and through
// coroutine programs that call Proc.Do. Each run's outcome and whole
// core.Result must match.
func TestRunOpsMatchesPrograms(t *testing.T) {
	hand, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	gen, err := Generated()
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		pick := rand.New(rand.NewSource(26)).Perm(len(gen))[:40]
		sub := make([]*Test, len(pick))
		for i, j := range pick {
			sub[i] = gen[j]
		}
		gen = sub
	}
	for _, tt := range append(hand, gen...) {
		c, err := tt.compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range Seeds(64) {
			cfg := c.simConfig(seed, network.FaultConfig{})
			got, _, resOps, err := c.simulate(core.NewMachine(cfg), false)
			if err != nil {
				t.Fatalf("%s seed %d through RunOps: %v", tt.Name, seed, err)
			}
			want, resProgs, err := c.simulateDo(core.NewMachine(cfg))
			if err != nil {
				t.Fatalf("%s seed %d through programs: %v", tt.Name, seed, err)
			}
			if got != want || resOps != resProgs {
				t.Fatalf("%s seed %d: RunOps gave %q %+v, programs %q %+v", tt.Name, seed, got, resOps, want, resProgs)
			}
		}
	}
}
