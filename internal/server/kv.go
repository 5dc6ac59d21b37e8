package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"ssmp/internal/kvapp"
	"ssmp/internal/metrics"
	"ssmp/internal/network"
	"ssmp/internal/sim"
	"ssmp/internal/workload"
)

// faultConfig lowers an optional fault block (nil = reliable fabric).
func faultConfig(f *FaultSpec) network.FaultConfig {
	if f == nil {
		return network.FaultConfig{}
	}
	return f.config()
}

// KVSpec is the canonical specification of one key-value service job: the
// kvapp client population plus the machine-level knobs the sim endpoint
// already exposes. Like SimSpec, the normalized struct's JSON encoding is
// the cache key's canonical form.
type KVSpec struct {
	// Procs is the machine size (a power of two).
	Procs int `json:"procs"`
	// Lock is the shard lock manager ("cbl", "mcs", ...); it selects the
	// machine protocol.
	Lock string `json:"lock"`
	// Keys, Shards, Sessions and Ops size the store and its load.
	Keys     int `json:"keys"`
	Shards   int `json:"shards"`
	Sessions int `json:"sessions"`
	Ops      int `json:"ops"`
	// GetFrac and PutFrac split the op mix (remainder CAS); pointers so an
	// explicit 0 is distinguishable from "default".
	GetFrac *float64 `json:"get_frac,omitempty"`
	PutFrac *float64 `json:"put_frac,omitempty"`
	// Theta is the Zipfian popularity skew (0 = uniform).
	Theta *float64 `json:"theta,omitempty"`
	// MeanGap, MeanOff and MeanBurst parameterize each session's bursty
	// arrival process (cycles / cycles / arrivals per burst).
	MeanGap   int64 `json:"mean_gap"`
	MeanOff   int64 `json:"mean_off"`
	MeanBurst int   `json:"mean_burst"`
	// OpenLoop selects open-loop arrivals (default true).
	OpenLoop *bool `json:"open_loop,omitempty"`
	// SubCap bounds the READ-UPDATE subscription set; 0 disables the fast
	// path (pointer so an explicit 0 survives normalization).
	SubCap *int `json:"sub_cap,omitempty"`
	// SubscribeAfter is the fast path's hotness threshold.
	SubscribeAfter int `json:"subscribe_after"`
	// Seed drives all workload randomness.
	Seed *uint64 `json:"seed,omitempty"`
	// Jitter seeds schedule jitter (core.Config.Jitter).
	Jitter uint64 `json:"jitter"`
	// SimWorkers sets the PDES worker count (same contract as SimSpec: 0
	// is a serial run; the contended network is lane-safe, ideal_network
	// not required).
	SimWorkers int `json:"sim_workers,omitempty"`
	// IdealNetwork removes switch contention (ablation).
	IdealNetwork bool `json:"ideal_network"`
	// Faults optionally enables the interconnect fault plane.
	Faults *FaultSpec `json:"faults,omitempty"`
}

// Normalize applies kvapp defaults in place and validates the spec.
func (k *KVSpec) Normalize() error {
	if k.Procs == 0 {
		k.Procs = 16
	}
	def := kvapp.DefaultSpec(max(k.Procs, 2))
	k.Lock = strings.ToLower(k.Lock)
	if k.Lock == "" {
		k.Lock = def.Lock
	}
	if k.Keys == 0 {
		k.Keys = def.Keys
	}
	if k.Shards == 0 {
		k.Shards = def.Shards
	}
	if k.Sessions == 0 {
		k.Sessions = def.Sessions
	}
	if k.Ops == 0 {
		k.Ops = def.Ops
	}
	if k.GetFrac == nil {
		k.GetFrac = &def.GetFrac
	}
	if k.PutFrac == nil {
		k.PutFrac = &def.PutFrac
	}
	if k.Theta == nil {
		k.Theta = &def.Theta
	}
	if k.MeanGap == 0 {
		k.MeanGap = int64(def.Arrival.MeanGap)
	}
	if k.MeanOff == 0 {
		k.MeanOff = int64(def.Arrival.MeanOff)
	}
	if k.MeanBurst == 0 {
		k.MeanBurst = def.Arrival.MeanBurst
	}
	if k.OpenLoop == nil {
		k.OpenLoop = &def.OpenLoop
	}
	if k.SubCap == nil {
		k.SubCap = &def.SubCap
	}
	if k.SubscribeAfter == 0 {
		k.SubscribeAfter = def.SubscribeAfter
	}
	if k.Seed == nil {
		k.Seed = &def.Seed
	}

	if k.Procs > maxSpecProcs {
		return fmt.Errorf("procs must be <= %d, got %d", maxSpecProcs, k.Procs)
	}
	if k.Ops > 1<<16 {
		return fmt.Errorf("ops must be <= %d, got %d", 1<<16, k.Ops)
	}
	if k.Sessions > 256 {
		return fmt.Errorf("sessions must be <= 256, got %d", k.Sessions)
	}
	if k.SimWorkers < 0 || k.SimWorkers > maxSpecProcs {
		return fmt.Errorf("sim_workers must be in [0,%d], got %d", maxSpecProcs, k.SimWorkers)
	}
	if k.Faults != nil {
		fc := k.Faults.config()
		if err := fc.Validate(); err != nil {
			return fmt.Errorf("faults: %w", err)
		}
		if !fc.Enabled() {
			return fmt.Errorf("faults block present but inert (zero seed or all-zero rates); omit it instead")
		}
	}
	// The kvapp spec validates everything else (procs power-of-two, op mix,
	// arrival process, subscription knobs).
	return k.appSpec().Validate()
}

// appSpec lowers the normalized spec to kvapp's form.
func (k *KVSpec) appSpec() kvapp.Spec {
	return kvapp.Spec{
		Procs:    k.Procs,
		Lock:     k.Lock,
		Keys:     k.Keys,
		Shards:   k.Shards,
		Sessions: k.Sessions,
		Ops:      k.Ops,
		GetFrac:  *k.GetFrac,
		PutFrac:  *k.PutFrac,
		Theta:    *k.Theta,
		Arrival: workload.Bursty{
			MeanGap:   sim.Time(k.MeanGap),
			MeanOff:   sim.Time(k.MeanOff),
			MeanBurst: k.MeanBurst,
		},
		OpenLoop:       *k.OpenLoop,
		SubCap:         *k.SubCap,
		SubscribeAfter: k.SubscribeAfter,
		Seed:           *k.Seed,
	}
}

// Key returns the spec's content address. Call Normalize first.
func (k *KVSpec) Key() string { return specKey("kv", k) }

// KVResult is the JSON form of a completed key-value run.
type KVResult struct {
	Cycles uint64 `json:"cycles"`
	kvapp.Counters
	// P50/P99/Mean summarize per-op latency in cycles; Throughput is
	// completed operations per 1000 cycles.
	P50        uint64  `json:"p50_cycles"`
	P99        uint64  `json:"p99_cycles"`
	Mean       float64 `json:"mean_cycles"`
	Throughput float64 `json:"throughput_ops_per_kcycle"`
	// Latency is the merged per-op latency histogram (metrics.Histogram's
	// JSON form).
	Latency *metrics.Histogram `json:"latency"`
	// Oracle is the per-key sequential-consistency verdict. The daemon
	// refuses to cache or return a violating run as a success, so Oracle
	// here always reports a pass; it is included for the record.
	Oracle kvapp.OracleReport `json:"oracle"`
	// Faults reports fault injection and recovery (present only when the
	// spec enabled the fault plane).
	Faults *metrics.FaultCounters `json:"faults,omitempty"`
}

// run executes the spec. An oracle violation is an error: a run that broke
// sequential consistency must not be cached as a result.
func (k *KVSpec) run(ctx context.Context) (*KVResult, error) {
	res, err := kvapp.Run(ctx, k.appSpec(), kvapp.RunOptions{
		Jitter:       k.Jitter,
		Faults:       faultConfig(k.Faults),
		SimWorkers:   k.SimWorkers,
		IdealNetwork: k.IdealNetwork,
	})
	if err != nil {
		return nil, err
	}
	if err := res.Check(); err != nil {
		return nil, err
	}
	lat := res.All
	out := &KVResult{
		Cycles:     uint64(res.Sim.Cycles),
		Counters:   res.Counters,
		P50:        res.P50(),
		P99:        res.P99(),
		Mean:       res.Mean(),
		Throughput: res.ThroughputOpsPerKCycle(),
		Latency:    &lat,
		Oracle:     res.Oracle,
	}
	if k.Faults != nil {
		fc := res.Sim.Faults
		out.Faults = &fc
	}
	return out, nil
}

// handleKV serves POST /v1/kv.
func (s *Server) handleKV(w http.ResponseWriter, r *http.Request) {
	var req struct {
		KVSpec
		TimeoutMS int64 `json:"timeout_ms"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if err := req.KVSpec.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid spec: %v", err)
		return
	}
	key := req.KVSpec.Key()
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMS))
	defer cancel()

	started := time.Now()
	res, cached, status, err := s.execute(ctx, key, func(ctx context.Context) (any, error) {
		out, err := req.KVSpec.run(ctx)
		if err != nil {
			return nil, err
		}
		if out.Faults != nil {
			s.statsMu.Lock()
			s.faults.Add(*out.Faults)
			s.statsMu.Unlock()
		}
		return out, nil
	})
	if err != nil {
		s.jobError(w, r, status, key, err)
		return
	}
	s.logf("ssmpd: kv %s cached=%v elapsed=%s", key[:22], cached, time.Since(started))
	writeJSON(w, http.StatusOK, JobResponse{
		Key:       key,
		Cached:    cached,
		ElapsedMS: time.Since(started).Milliseconds(),
		Result:    res,
	})
}
