package main

import (
	"encoding/json"
	"fmt"
	"time"

	"ssmp/internal/bccheck"
	"ssmp/internal/core"
	"ssmp/internal/harness"
	"ssmp/internal/kvapp"
	"ssmp/internal/litmus"
	"ssmp/internal/mem"
	"ssmp/internal/network"
	"ssmp/internal/server"
	"ssmp/internal/sim"
	"ssmp/internal/workload"
)

// suite is the layer suite of a traced run: small fixed programs that
// each exercise one layer through public functions, timed from outside.
// Every traced run, whatever its workload, runs the same suite, so every
// per-layer time metric is measured on every run. Each program's spans
// carry the layer it measures.
type suite struct {
	tr *tracer
	p  *pass
	m  map[string]metric
}

// timed runs fn as a span of layer and returns its wall time; an error
// counts as a failed op of the traced run.
func (s *suite) timed(layer, name string, fn func() error) time.Duration {
	t0 := time.Now()
	err := s.tr.span(-1, -1, layer, name, func(int) error { return fn() })
	d := time.Since(t0)
	s.p.attempted++
	if err != nil {
		s.p.fail(fmt.Errorf("%s: %w", name, err))
	}
	return d
}

// medianOf runs fn reps times and returns the median wall time in seconds.
func (s *suite) medianOf(layer, name string, reps int, fn func() error) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = s.timed(layer, name, fn).Seconds()
	}
	return median(xs)
}

func (s *suite) set(name string, v float64, unit string) { s.m[name] = metric{v, unit} }

func runSuite(tr *tracer, seed uint64) (map[string]metric, *pass) {
	s := &suite{tr: tr, p: newPass(), m: map[string]metric{}}
	s.sim()
	s.core()
	s.protocols()
	s.network()
	s.kv()
	s.litmus()
	s.harness()
	s.server(seed)
	return s.m, s.p
}

func (s *suite) sim() {
	// A chain of 1,000 After calls: the event kernel alone.
	var fired uint64
	v := s.medianOf("sim", "sim.Engine.Run chain", 200, func() error {
		e := sim.NewEngine()
		n := 0
		var step func()
		step = func() {
			if n++; n < 1000 {
				e.After(1, step)
			}
		}
		e.At(0, step)
		err := e.Run()
		fired = e.Fired()
		return err
	})
	s.set("sim.engine_ns_per_event", v*1e9/float64(fired), "ns")

	// A whole 16-node work-queue machine: host time per simulated event.
	xs := make([]float64, 12)
	for r := range xs {
		cfg := core.DefaultConfig(16)
		var progs []core.Program
		s.timed("workload", "workload.WorkQueue 16", func() error {
			p := workload.DefaultParams()
			layout := workload.NewLayout(mem.Geometry{BlockWords: cfg.BlockWords, Nodes: 16}, p)
			progs, _ = workload.WorkQueue(16, 32, 0, p, layout, workload.CBLKit(layout, 16), uint64(r))
			return nil
		})
		m := core.NewMachine(cfg)
		var events uint64
		d := s.timed("sim", "core.Machine.Run queue16", func() error {
			res, err := m.Run(progs)
			events = res.Events
			return err
		})
		xs[r] = float64(d) / float64(max(events, 1))
	}
	s.set("sim.ns_per_event", median(xs), "ns")
}

// litmusShaped runs a 4-node program of global writes and reads, the shape
// of a litmus test, optionally recording history.
func litmusShaped(history bool) error {
	m := core.NewMachine(core.DefaultConfig(4))
	if history {
		m.EnableHistory()
	}
	progs := make([]core.Program, 4)
	for i := range progs {
		own, other := mem.Addr(16*i), mem.Addr(16*((i+1)%4))
		progs[i] = func(p *core.Proc) {
			for k := 1; k <= 16; k++ {
				p.WriteGlobal(own, mem.Word(k))
				p.ReadGlobal(other)
			}
			p.FlushBuffer()
		}
	}
	_, err := m.Run(progs)
	return err
}

func (s *suite) core() {
	newMachine := func(n, reps int) float64 {
		return s.medianOf("core", fmt.Sprintf("core.NewMachine %d", n), reps, func() error {
			core.NewMachine(core.DefaultConfig(n))
			return nil
		})
	}
	nm2 := newMachine(2, 40)
	s.set("core.new_machine_2n_us", nm2*1e6, "us")
	s.set("core.new_machine_4n_us", newMachine(4, 40)*1e6, "us")
	s.set("core.new_machine_64n_us", newMachine(64, 12)*1e6, "us")

	sb, err := litmus.Load("sb")
	if err != nil {
		s.p.attempted++
		s.p.fail(err)
		return
	}
	runSim := s.medianOf("core", "litmus.Test.RunSim sb", 40, func() error {
		_, err := sb.RunSim(0)
		return err
	})
	s.set("core.setup_frac", nm2/runSim, "frac")

	var with, without []float64
	for r := 0; r < 30; r++ {
		with = append(with, s.timed("core", "core history on", func() error { return litmusShaped(true) }).Seconds())
		without = append(without, s.timed("core", "core history off", func() error { return litmusShaped(false) }).Seconds())
	}
	s.set("core.history_frac", median(with)/median(without)-1, "frac")

	// One processor issuing blocking READ-GLOBALs to its own memory module:
	// each costs one resume/yield round trip with the event loop.
	const k = 2000
	v := s.medianOf("core", "core blocking ops", 7, func() error {
		m := core.NewMachine(core.DefaultConfig(2))
		_, err := m.Run([]core.Program{func(p *core.Proc) {
			for i := 0; i < k; i++ {
				p.ReadGlobal(0)
			}
		}, nil})
		return err
	})
	s.set("core.blocking_op_ns", v*1e9/k, "ns")
}

// runMachine builds a machine and runs one program per node.
func runMachine(cfg core.Config, prog func(p *core.Proc)) error {
	progs := make([]core.Program, cfg.Nodes)
	for i := range progs {
		progs[i] = prog
	}
	_, err := core.NewMachine(cfg).Run(progs)
	return err
}

func (s *suite) protocols() {
	// A 64-node convoy on one CBL lock: the grant wave down the queue.
	lock := mem.Addr(4 * 4096)
	v := s.medianOf("cbl", "cbl grant wave 64", 7, func() error {
		return runMachine(core.DefaultConfig(64), func(p *core.Proc) {
			p.WriteLock(lock)
			p.Think(4)
			p.Unlock(lock)
		})
	})
	s.set("cbl.grant_wave_us", v*1e6, "us")

	// One writer, 31 READ-UPDATE subscribers: updates propagate down the
	// subscriber chain.
	x := mem.Addr(4 * 8192)
	v = s.medianOf("ruc", "ruc update chain 32", 7, func() error {
		return runMachine(core.DefaultConfig(32), func(p *core.Proc) {
			if p.Id() != 0 {
				p.ReadUpdate(x)
				return
			}
			p.Think(5000)
			for k := 1; k <= 16; k++ {
				p.WriteGlobal(x, mem.Word(k))
			}
			p.FlushBuffer()
		})
	})
	s.set("ruc.update_chain_us", v*1e6, "us")

	// 4 sharers and a writer on a 16-node WBI machine: each round's write
	// invalidates the sharers' copies.
	cfg := core.DefaultConfig(16)
	cfg.Protocol = core.ProtoWBI
	v = s.medianOf("wbi", "wbi invalidation 16", 7, func() error {
		return runMachine(cfg, func(p *core.Proc) {
			if p.Id() > 4 {
				return
			}
			for r := 0; r < 16; r++ {
				at := sim.Time(r * 4000)
				if p.Id() == 0 {
					at += 2000
				}
				if now := p.Now(); now < at {
					p.Think(at - now)
				}
				if p.Id() == 0 {
					p.Write(x, mem.Word(r+1))
				} else {
					p.Read(x)
				}
			}
		})
	})
	s.set("wbi.inval_us", v*1e6, "us")
}

func (s *suite) network() {
	const sends = 1 << 16
	v := s.medianOf("network", "network.Send 64", 7, func() error {
		e := sim.NewEngine()
		n := network.New(e, network.DefaultConfig(64))
		for i := 0; i < 64; i++ {
			n.Attach(i, func(any) {})
		}
		for i := 0; i < sends; i++ {
			n.Send(i&63, (i*7)&63, 4, nil)
			if i%1024 == 1023 {
				if err := e.Run(); err != nil {
					return err
				}
			}
		}
		return e.Run()
	})
	s.set("network.send_ns", v*1e9/sends, "ns")
}

func (s *suite) kv() {
	spec := kvSpec(42)
	var on2, on0, off2 []float64
	var res *kvapp.Result
	run := func(layer, name string, opts kvapp.RunOptions) float64 {
		return s.timed(layer, name, func() error {
			r, err := kvRun(spec, opts, tamperNone)
			if r != nil && opts.SimWorkers == 2 && opts.Faults.Enabled() {
				res = r
			}
			return err
		}).Seconds()
	}
	for r := 0; r < 3; r++ {
		on2 = append(on2, run("fabric", "kvapp.Run lanes faults", kvapp.RunOptions{SimWorkers: 2, Faults: chaos(1)}))
		on0 = append(on0, run("sim", "kvapp.Run serial faults", kvapp.RunOptions{Faults: chaos(1)}))
		off2 = append(off2, run("kvapp", "kvapp.Run lanes", kvapp.RunOptions{SimWorkers: 2}))
	}
	s.set("sim.lanes_vs_serial", median(on2)/median(on0), "ratio")
	s.set("fabric.fault_overhead", median(on2)/median(off2), "ratio")
	if res != nil {
		s.set("kvapp.p99_cycles", float64(res.P99()), "cycles")
		s.set("kvapp.ops_per_kcycle", res.ThroughputOpsPerKCycle(), "1/kcycle")
	}
}

func (s *suite) litmus() {
	var c *litmusCorpus
	parse := s.medianOf("litmus", "litmus corpus parse", 5, func() error {
		var err error
		c, err = loadCorpus(tamperNone)
		return err
	})
	if c == nil {
		return
	}
	n := float64(len(c.tests))
	s.set("litmus.parse_us", parse*1e6/n, "us")

	// One full replay pass: the enumerator's share and the cost of one
	// simulator run.
	var enumNS int64
	wall := s.timed("litmus", "litmus.Run corpus", func() error {
		for _, t := range c.tests {
			rep, err := litmus.Run(t, litmus.Seeds(64))
			if err != nil {
				return err
			}
			if err := c.check(rep); err != nil {
				return err
			}
			enumNS += rep.EnumNS
		}
		return nil
	})
	s.set("litmus.enum_frac", float64(enumNS)/float64(wall), "frac")
	s.set("litmus.sim_run_us", float64(wall.Nanoseconds()-enumNS)/1e3/(n*64), "us")

	// The whole corpus enumerated at the default tuning, with symmetry off,
	// and on one worker.
	enumerate := func(tune bccheck.Tuning, states *int) func() error {
		return func() error {
			*states = 0
			for _, t := range c.tests {
				rep, err := litmus.RunTuned(t, nil, tune)
				if err != nil {
					return err
				}
				if err := c.check(rep); err != nil {
					return err
				}
				*states += rep.States
			}
			return nil
		}
	}
	var stDef, stOff, stOne int
	var def, off, one []float64
	for r := 0; r < 3; r++ {
		def = append(def, s.timed("bccheck", "bccheck default", enumerate(bccheck.Tuning{}, &stDef)).Seconds())
		off = append(off, s.timed("bccheck", "bccheck symmetry off", enumerate(bccheck.Tuning{DisableSymmetry: true}, &stOff)).Seconds())
		one = append(one, s.timed("bccheck", "bccheck one worker", enumerate(bccheck.Tuning{Workers: 1}, &stOne)).Seconds())
	}
	d := median(def)
	s.set("bccheck.ns_per_state", d*1e9/float64(max(stDef, 1)), "ns")
	s.set("bccheck.sym_states_ratio", float64(stOff)/float64(max(stDef, 1)), "ratio")
	s.set("bccheck.sym_speedup", median(off)/d, "ratio")
	s.set("bccheck.workers1_speedup", median(one)/d, "ratio")
}

func (s *suite) harness() {
	opts := harness.DefaultOptions()
	d := s.timed("harness", "harness.FigureByNumber 4-7", func() error {
		for n := 4; n <= 7; n++ {
			if _, err := opts.FigureByNumber(n); err != nil {
				return err
			}
		}
		return nil
	})
	s.set("harness.sweep_s", d.Seconds(), "s")
}

func (s *suite) server(seed uint64) {
	var specs []server.SimSpec
	for k := 0; k < 32; k++ {
		var sp server.SimSpec
		if err := json.Unmarshal([]byte(hotSpec(k)), &sp); err != nil {
			s.p.attempted++
			s.p.fail(err)
			return
		}
		specs = append(specs, sp)
	}
	const rounds = 50
	v := s.medianOf("server", "server.SimSpec.Normalize+Key", 7, func() error {
		for r := 0; r < rounds; r++ {
			for _, sp := range specs {
				if err := sp.Normalize(); err != nil {
					return err
				}
				_ = sp.Key()
			}
		}
		return nil
	})
	s.set("server.normalize_key_us", v*1e6/float64(rounds*len(specs)), "us")

	// One second of the ssmpd-mix traffic on its own seed stream, split by
	// whether the daemon answered from its cache.
	j, err := setupSSMPD(mix(seed^0x55), tamperNone)
	if err != nil {
		s.p.attempted++
		s.p.fail(err)
		return
	}
	defer j.close()
	sj := j.(*ssmpdJob)
	if err := sj.warm(); err != nil {
		s.p.attempted++
		s.p.fail(err)
		return
	}
	p, qs, replies := sj.drive(ssmpdRate, s.tr)
	s.p.attempted += p.attempted
	s.p.failed += p.failed
	s.p.errs = append(s.p.errs, p.errs...)
	var hit, miss []float64
	for i, r := range replies {
		var env struct {
			Cached bool `json:"cached"`
		}
		if qs[i].class == "metrics" || r.err != nil || json.Unmarshal(r.body, &env) != nil {
			continue
		}
		if env.Cached {
			hit = append(hit, ms(r.lat))
		} else {
			miss = append(miss, ms(r.lat))
		}
	}
	s.set("server.hit_p50_ms", quantile(hit, 0.5), "ms")
	s.set("server.miss_p50_ms", quantile(miss, 0.5), "ms")
	s.set("bench.gen_lag_p99_ms", quantile(msAll(p.gen), 0.99), "ms")
	var snap server.MetricsSnapshot
	r := sj.do(request{path: "/metrics"}, time.Now(), -1, -1, nil)
	if r.err == nil {
		r.err = json.Unmarshal(r.body, &snap)
	}
	s.p.attempted++
	if r.err != nil {
		s.p.fail(r.err)
		return
	}
	s.set("server.cache_hit_frac", snap.Cache.HitRate, "frac")
}
