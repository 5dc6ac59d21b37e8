package litmus

import (
	"strings"
	"testing"

	"ssmp/internal/core"
	"ssmp/internal/metrics"
	"ssmp/internal/network"
)

// allTests is the hand-written corpus followed by the generated one.
func allTests(t *testing.T) []*Test {
	t.Helper()
	hand, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	gen, err := Generated()
	if err != nil {
		t.Fatal(err)
	}
	return append(hand, gen...)
}

// TestCorpusReuseMatchesFresh runs every corpus test under Seeds(64) twice:
// on a fresh machine per run, and on one machine per node count reset from
// run to run and from test to test. Each run's outcome and whole
// core.Result must match.
func TestCorpusReuseMatchesFresh(t *testing.T) {
	tests := allTests(t)
	if len(tests) == 0 {
		t.Fatal("empty corpus")
	}
	reused := map[int]*core.Machine{}
	for _, tt := range tests {
		c, err := tt.compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range Seeds(64) {
			cfg := c.simConfig(seed, network.FaultConfig{})
			m := reused[cfg.Nodes]
			if m == nil {
				m = core.NewMachine(cfg)
				reused[cfg.Nodes] = m
			} else {
				m.Reset(cfg)
			}
			outR, _, resR, err := c.simulate(m, false)
			if err != nil {
				t.Fatalf("%s seed %d on a reset machine: %v", tt.Name, seed, err)
			}
			outF, _, resF, err := c.simulate(core.NewMachine(cfg), false)
			if err != nil {
				t.Fatalf("%s seed %d: %v", tt.Name, seed, err)
			}
			if outR != outF || resR != resF {
				t.Fatalf("%s seed %d: reset machine gave %q %+v, fresh %q %+v", tt.Name, seed, outR, resR, outF, resF)
			}
		}
	}
}

// TestChaosReuseMatchesFresh sweeps a few corpus tests with RunChaos, whose
// workers share runSim's machine pools, and checks every seed's outcome
// and the sweep's fault counters against fresh machines. The sweep runs
// twice, so the second takes machines the first left in the pools, reset
// across tests and from faults on to off (seed 0 runs fault-free).
func TestChaosReuseMatchesFresh(t *testing.T) {
	chaos := ChaosConfig{Rates: DefaultChaosRates()}
	seeds := append([]uint64{0}, ChaosSeeds(16)...)
	tests := allTests(t)
	for round := 0; round < 2; round++ {
		for _, tt := range []*Test{tests[0], tests[5], tests[17], tests[100], tests[329]} {
			rep, err := RunChaos(tt, seeds, chaos)
			if err != nil {
				t.Fatal(err)
			}
			c, err := tt.compile()
			if err != nil {
				t.Fatal(err)
			}
			var faults metrics.FaultCounters
			for _, seed := range seeds {
				out, _, res, err := c.simulate(core.NewMachine(c.simConfig(seed, chaos.faults(seed))), false)
				if err != nil {
					t.Fatal(err)
				}
				if !containsSeed(rep.Observed[out], seed) {
					t.Fatalf("%s seed %d: fresh machine gave %q, the sweep saw %v", tt.Name, seed, out, rep.Observed)
				}
				faults.Add(res.Faults)
			}
			if *rep.Faults != faults {
				t.Fatalf("%s: sweep counted faults %+v, fresh machines %+v", tt.Name, *rep.Faults, faults)
			}
		}
	}
}

func containsSeed(seeds []uint64, s uint64) bool {
	for _, x := range seeds {
		if x == s {
			return true
		}
	}
	return false
}

// TestExplainReproducesChaosRuns checks that ExplainViolation replays a
// chaos sweep's runs under their own fault planes: every outcome the sweep
// observed is reproduced, with the faults named.
func TestExplainReproducesChaosRuns(t *testing.T) {
	tests := allTests(t)
	for _, tt := range []*Test{tests[1], tests[8], tests[200]} {
		rep, err := RunChaos(tt, ChaosSeeds(12), ChaosConfig{Rates: DefaultChaosRates()})
		if err != nil {
			t.Fatal(err)
		}
		for out := range rep.Observed {
			text, err := ExplainViolation(tt, rep, out)
			if err != nil {
				t.Fatalf("%s: %v", tt.Name, err)
			}
			if !strings.Contains(text, "under faults{seed=") {
				t.Fatalf("%s: explanation does not name its fault plane:\n%s", tt.Name, text)
			}
		}
	}
}
