package main

import (
	"context"
	"fmt"

	"ssmp/internal/core"
	"ssmp/internal/kvapp"
	"ssmp/internal/litmus"
	"ssmp/internal/network"
)

// kvSpec is the 64-node KV service in the shape of the PDES KV benchmark:
// CBL shard locks, 256 keys on 16 shards, 2 clients per node, 64 ops per
// node, 32 subscriptions per node.
func kvSpec(seed uint64) kvapp.Spec {
	s := kvapp.DefaultSpec(64)
	s.Keys, s.Shards, s.Sessions, s.Ops, s.SubCap = 256, 16, 2, 64, 32
	s.Seed = seed
	return s
}

// kvRun runs the KV service once and checks the oracle's verdict. The
// result is returned with a failed check, so its counters still count.
func kvRun(spec kvapp.Spec, opts kvapp.RunOptions, tm tamper) (*kvapp.Result, error) {
	res, err := kvapp.Run(context.Background(), spec, opts)
	if err != nil {
		return nil, err
	}
	if tm == tamperOracle {
		res.Oracle.Violations = append(res.Oracle.Violations, "forged violation")
	}
	return res, res.Check()
}

func chaos(seed uint64) network.FaultConfig {
	return network.FaultConfig{Seed: seed | 1, Rates: litmus.DefaultChaosRates()}
}

func setupKV(seed uint64, tm tamper) (job, error) {
	return &loopJob{op: func(i, parent int, tr *tracer, p *pass) error {
		r := stream(seed, uint64(i))
		spec := kvSpec(r.next())
		opts := kvapp.RunOptions{SimWorkers: 2, Faults: chaos(r.next())}
		var res *kvapp.Result
		err := tr.span(parent, i, "kvapp", "kvapp.Run", func(int) error {
			var err error
			res, err = kvRun(spec, opts, tm)
			return err
		})
		if res != nil {
			addRun(p, res.Sim, core.ProtoCBL)
		}
		if err != nil {
			return fmt.Errorf("kv seed %d fault seed %d: %w", spec.Seed, opts.Faults.Seed, err)
		}
		return nil
	}}, nil
}
