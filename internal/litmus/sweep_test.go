package litmus

import (
	"reflect"
	"testing"

	"ssmp/internal/bccheck"
)

// TestSweepParallelMatchesSerial pins the sweep's determinism contract:
// spreading the enumeration and the seed runs over several goroutines
// yields the report the one-worker sweep does, down to the order of the
// seeds behind every observed outcome and the summed fault counters. Only
// the wall-clock EnumNS may differ.
func TestSweepParallelMatchesSerial(t *testing.T) {
	same := func(t *testing.T, what string, got, want *Report) {
		t.Helper()
		got.EnumNS, want.EnumNS = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %s differs from the serial sweep:\n got %+v\nwant %+v", want.Name, what, got, want)
		}
	}

	hand, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	tests, seeds := hand, Seeds(16)
	if !testing.Short() {
		gen, err := Generated()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(gen); i += 10 {
			tests = append(tests, gen[i])
		}
		seeds = Seeds(64)
	}
	for _, lt := range tests {
		want, err := RunSerial(lt, seeds)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(lt, seeds)
		if err != nil {
			t.Fatal(err)
		}
		same(t, "Run", got, want)
		got, err = runSweep(lt, seeds, bccheck.Tuning{}, ChaosConfig{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		same(t, "the 4-worker sweep", got, want)
	}

	chaos := ChaosConfig{Rates: DefaultChaosRates()}
	for _, lt := range hand {
		want, err := runSweep(lt, ChaosSeeds(16), bccheck.Tuning{}, chaos, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunChaos(lt, ChaosSeeds(16), chaos)
		if err != nil {
			t.Fatal(err)
		}
		same(t, "RunChaos", got, want)
	}
}

// BenchmarkSweep measures one pass over the hand-written corpus at 64
// jitter seeds, on one worker and on GOMAXPROCS.
func BenchmarkSweep(b *testing.B) {
	tests, err := Corpus()
	if err != nil {
		b.Fatal(err)
	}
	seeds := Seeds(64)
	for _, bc := range []struct {
		name string
		run  func(*Test, []uint64) (*Report, error)
	}{{"workers=1", RunSerial}, {"workers=gomaxprocs", Run}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, lt := range tests {
					rep, err := bc.run(lt, seeds)
					if err != nil {
						b.Fatal(err)
					}
					if !rep.Ok() {
						b.Fatal(rep.Summary())
					}
				}
			}
		})
	}
}
