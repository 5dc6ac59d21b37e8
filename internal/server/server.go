package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ssmp/internal/metrics"
)

// Config parameterizes the daemon.
type Config struct {
	// Workers is the worker-pool size; 0 means GOMAXPROCS. Each worker
	// runs one job at a time, and most jobs occupy roughly one core: a
	// simulation is a set of goroutines of which only one is runnable at
	// any instant, and a litmus job sweeps its seeds on the worker's own
	// goroutine (litmus.RunSerial). Two kinds of job take more: a spec
	// with sim_workers runs that many PDES lanes, and a figure job still
	// fans its cells out through the harness at Parallelism 0, that is on
	// up to GOMAXPROCS goroutines.
	Workers int
	// QueueDepth bounds the number of accepted-but-not-running jobs;
	// 0 means 4x workers. Beyond it, submissions get 429.
	QueueDepth int
	// CacheEntries bounds the result cache; 0 means 4096. Negative
	// disables caching.
	CacheEntries int
	// DefaultTimeout applies to jobs that specify none; 0 means 60s.
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested timeout; 0 means 10m.
	MaxTimeout time.Duration
	// Log, when non-nil, receives request and lifecycle lines.
	Log *log.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	return c
}

// inflight tracks one running job so identical concurrent requests share a
// single simulation instead of racing duplicates through the pool.
type inflight struct {
	done chan struct{}
	res  any
	err  error
}

// Server is the ssmpd daemon: HTTP handlers over a worker pool and a
// content-addressed result cache.
type Server struct {
	cfg   Config
	pool  *pool
	cache *resultCache
	mux   *http.ServeMux
	start time.Time

	mu       sync.RWMutex // guards draining and inflight
	draining bool
	inflight map[string]*inflight

	accepted  atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	timedOut  atomic.Uint64
	rejected  atomic.Uint64

	// Simulation-throughput observability. simEvents and simBusyNS cover
	// executed sim jobs only (figures do not report event counts), so
	// their quotient is the kernel's simulated-events-per-wall-second.
	// jobAllocs is a process-wide heap-allocation (Mallocs) delta sampled
	// around each executed job; with overlapping jobs it attributes
	// concurrent allocations to whichever job is being sampled, so the
	// per-job mean is approximate under load.
	simEvents   atomic.Uint64
	simBusyNS   atomic.Int64
	jobAllocs   atomic.Uint64
	jobsSampled atomic.Uint64

	// Litmus-endpoint observability. litmusStates and litmusBusyNS cover
	// executed (non-cached) litmus jobs only, so their quotient is the
	// exploration engine's states-per-wall-second as this daemon sees it.
	litmusJobs      atomic.Uint64
	litmusCacheHits atomic.Uint64
	litmusExecuted  atomic.Uint64
	litmusStates    atomic.Uint64
	litmusBusyNS    atomic.Int64

	statsMu sync.Mutex
	latency metrics.Histogram     // wall milliseconds per executed job
	msgs    metrics.Collector     // simulated messages, aggregated over runs
	faults  metrics.FaultCounters // fault/recovery counters, aggregated over runs
	rmr     metrics.RMRCounters   // remote-memory-reference counters, aggregated over runs
}

// New builds a Server and its routes.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		pool:     newPool(cfg.Workers, cfg.QueueDepth),
		cache:    newResultCache(cfg.CacheEntries),
		mux:      http.NewServeMux(),
		start:    time.Now(),
		inflight: make(map[string]*inflight),
	}
	s.mux.HandleFunc("POST /v1/sim", s.handleSim)
	s.mux.HandleFunc("POST /v1/figure", s.handleFigurePost)
	s.mux.HandleFunc("GET /v1/figure/{n}", s.handleFigureGet)
	s.mux.HandleFunc("POST /v1/kv", s.handleKV)
	s.mux.HandleFunc("POST /v1/litmus", s.handleLitmusPost)
	s.mux.HandleFunc("GET /v1/litmus", s.handleLitmusList)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

// Shutdown drains the daemon: new jobs are refused with 503, queued and
// running jobs finish, and the worker pool exits. It returns ctx.Err() if
// the drain outlives ctx (workers keep draining in the background).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if already {
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.pool.close()
		close(done)
	}()
	select {
	case <-done:
		s.logf("ssmpd: drained, all workers idle")
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// JobResponse is the envelope every job endpoint returns.
type JobResponse struct {
	// Key is the job's content address; resubmitting the same spec hits
	// the cache under this key.
	Key string `json:"key"`
	// Cached reports whether the payload was served from the cache.
	Cached bool `json:"cached"`
	// ElapsedMS is this request's service time (0 is possible for hits).
	ElapsedMS int64 `json:"elapsed_ms"`
	// Result is set for sim jobs, Figure for figure jobs.
	Result any `json:"result,omitempty"`
	Figure any `json:"figure,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// timeout resolves a request's timeout_ms against the server's bounds.
func (s *Server) timeout(ms int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// execute resolves one job: cache, then in-flight dedup, then the pool.
// It returns the payload, whether it came from the cache, and the HTTP
// status to use on error.
func (s *Server) execute(ctx context.Context, key string, run func(context.Context) (any, error)) (any, bool, int, error) {
	if res, ok := s.cache.get(key); ok {
		return res, true, 0, nil
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rejected.Add(1)
		return nil, false, http.StatusServiceUnavailable, errors.New("server draining")
	}
	if fl, ok := s.inflight[key]; ok {
		// Identical job already running: share its outcome.
		s.mu.Unlock()
		select {
		case <-fl.done:
			if fl.err != nil {
				return nil, false, errStatus(fl.err), fl.err
			}
			return fl.res, false, 0, nil
		case <-ctx.Done():
			return nil, false, errStatus(ctx.Err()), ctx.Err()
		}
	}
	fl := &inflight{done: make(chan struct{})}
	s.inflight[key] = fl
	t := &task{ctx: ctx, run: run, done: make(chan struct{})}
	// Submit under the same critical section that checked draining: the
	// pool's queue must not be closed between the check and the send.
	err := s.pool.submit(t)
	if err != nil {
		delete(s.inflight, key)
	}
	s.mu.Unlock()
	if err != nil {
		s.rejected.Add(1)
		return nil, false, http.StatusTooManyRequests, err
	}
	s.accepted.Add(1)

	started := time.Now()
	<-t.done
	s.mu.Lock()
	delete(s.inflight, key)
	s.mu.Unlock()
	fl.res, fl.err = t.res, t.err
	close(fl.done)

	if t.err != nil {
		if errors.Is(t.err, context.DeadlineExceeded) || errors.Is(t.err, context.Canceled) {
			s.timedOut.Add(1)
		} else {
			s.failed.Add(1)
		}
		return nil, false, errStatus(t.err), t.err
	}
	s.completed.Add(1)
	s.statsMu.Lock()
	s.latency.Observe(uint64(time.Since(started).Milliseconds()))
	s.statsMu.Unlock()
	s.cache.put(key, t.res)
	return t.res, false, 0, nil
}

// errStatus maps a job error to an HTTP status: deadline and cancellation
// to 504, a panic inside the job to 500, anything else (deadlock, horizon)
// to 422 — the request was well-formed, the simulation it named failed.
func errStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, errJobPanicked):
		return http.StatusInternalServerError
	}
	return http.StatusUnprocessableEntity
}

// SimRequest is the POST /v1/sim body: a spec plus request-level options
// that do not participate in the cache key.
type SimRequest struct {
	SimSpec
	// TimeoutMS bounds this job's execution (capped by the server's
	// MaxTimeout). It addresses the request, not the result, so it is
	// excluded from the cache key.
	TimeoutMS int64 `json:"timeout_ms"`
}

func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	var req SimRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := req.SimSpec.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid spec: %v", err)
		return
	}
	key := req.SimSpec.Key()
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMS))
	defer cancel()

	started := time.Now()
	res, cached, status, err := s.execute(ctx, key, func(ctx context.Context) (any, error) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		jobStart := time.Now()
		out, coll, err := req.SimSpec.run(ctx)
		elapsed := time.Since(jobStart)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		s.simEvents.Add(out.Events)
		s.simBusyNS.Add(int64(elapsed))
		s.jobAllocs.Add(m1.Mallocs - m0.Mallocs)
		s.jobsSampled.Add(1)
		s.statsMu.Lock()
		s.msgs.Add(coll)
		if out.Faults != nil {
			s.faults.Add(*out.Faults)
		}
		if out.RMR != nil {
			s.rmr.Add(*out.RMR)
		}
		s.statsMu.Unlock()
		return out, nil
	})
	if err != nil {
		s.jobError(w, r, status, key, err)
		return
	}
	s.logf("ssmpd: sim %s cached=%v elapsed=%s", key[:22], cached, time.Since(started))
	writeJSON(w, http.StatusOK, JobResponse{
		Key:       key,
		Cached:    cached,
		ElapsedMS: time.Since(started).Milliseconds(),
		Result:    res,
	})
}

func (s *Server) handleFigurePost(w http.ResponseWriter, r *http.Request) {
	var req struct {
		FigureSpec
		TimeoutMS int64 `json:"timeout_ms"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	s.serveFigure(w, r, req.FigureSpec, req.TimeoutMS)
}

// handleFigureGet serves GET /v1/figure/{n}?procs=2,4,8&episodes=3&...
// so a figure is one curl away.
func (s *Server) handleFigureGet(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "figure number %q is not an integer", r.PathValue("n"))
		return
	}
	spec := FigureSpec{Figure: n}
	q := r.URL.Query()
	var timeoutMS int64
	for param, set := range map[string]func(string) error{
		"procs": func(v string) error {
			for _, part := range strings.Split(v, ",") {
				p, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil {
					return err
				}
				spec.Procs = append(spec.Procs, p)
			}
			return nil
		},
		"episodes": func(v string) (err error) { spec.Episodes, err = strconv.Atoi(v); return },
		"tasks":    func(v string) (err error) { spec.Tasks, err = strconv.Atoi(v); return },
		"spawn_prob": func(v string) error {
			p, err := strconv.ParseFloat(v, 64)
			spec.SpawnProb = &p
			return err
		},
		"seed": func(v string) error {
			sd, err := strconv.ParseUint(v, 10, 64)
			spec.Seed = &sd
			return err
		},
		"timeout_ms": func(v string) (err error) { timeoutMS, err = strconv.ParseInt(v, 10, 64); return },
	} {
		if v := q.Get(param); v != "" {
			if err := set(v); err != nil {
				writeError(w, http.StatusBadRequest, "bad %s %q", param, v)
				return
			}
		}
	}
	s.serveFigure(w, r, spec, timeoutMS)
}

func (s *Server) serveFigure(w http.ResponseWriter, r *http.Request, spec FigureSpec, timeoutMS int64) {
	if err := spec.Normalize(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid spec: %v", err)
		return
	}
	key := spec.Key()
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(timeoutMS))
	defer cancel()

	started := time.Now()
	res, cached, status, err := s.execute(ctx, key, func(ctx context.Context) (any, error) {
		return spec.run(ctx)
	})
	if err != nil {
		s.jobError(w, r, status, key, err)
		return
	}
	s.logf("ssmpd: figure %d %s cached=%v elapsed=%s", spec.Figure, key[:22], cached, time.Since(started))
	writeJSON(w, http.StatusOK, JobResponse{
		Key:       key,
		Cached:    cached,
		ElapsedMS: time.Since(started).Milliseconds(),
		Figure:    res,
	})
}

func (s *Server) jobError(w http.ResponseWriter, r *http.Request, status int, key string, err error) {
	if status == http.StatusTooManyRequests {
		// The queue is full of simulations; a second is a reasonable
		// spacing for the next attempt.
		w.Header().Set("Retry-After", "1")
	}
	s.logf("ssmpd: %s %s -> %d: %v", r.Method, r.URL.Path, status, err)
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	status := http.StatusOK
	state := "ok"
	if draining {
		// Draining means "stop sending traffic here": load balancers
		// read 503 as unhealthy while in-flight work completes.
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	writeJSON(w, status, map[string]any{"status": state, "uptime_s": time.Since(s.start).Seconds()})
}

// MetricsSnapshot is the GET /metrics payload.
type MetricsSnapshot struct {
	UptimeS float64 `json:"uptime_s"`
	Queue   struct {
		Depth    int `json:"depth"`
		Capacity int `json:"capacity"`
	} `json:"queue"`
	Workers struct {
		Count int   `json:"count"`
		Busy  int64 `json:"busy"`
	} `json:"workers"`
	Cache cacheStats `json:"cache"`
	Jobs  struct {
		Accepted  uint64 `json:"accepted"`
		Completed uint64 `json:"completed"`
		Failed    uint64 `json:"failed"`
		TimedOut  uint64 `json:"timed_out"`
		Rejected  uint64 `json:"rejected"`
	} `json:"jobs"`
	// Sim summarizes kernel throughput over executed sim jobs.
	Sim struct {
		// EventsTotal is the number of simulation events executed.
		EventsTotal uint64 `json:"events_total"`
		// BusyWallS is wall-clock time spent inside sim runs.
		BusyWallS float64 `json:"busy_wall_s"`
		// EventsPerWallSecond is the kernel's aggregate throughput.
		EventsPerWallSecond float64 `json:"events_per_wall_second"`
		// JobsSampled counts the executed jobs behind MeanJobAllocs.
		JobsSampled uint64 `json:"jobs_sampled"`
		// MeanJobAllocs is the mean process-wide heap-allocation delta
		// per executed job (approximate when jobs overlap).
		MeanJobAllocs float64 `json:"mean_job_allocs"`
	} `json:"sim"`
	// Litmus summarizes the /v1/litmus endpoint and its exploration
	// engine.
	Litmus struct {
		// Jobs counts litmus requests resolved (cache hits included).
		Jobs uint64 `json:"jobs"`
		// Executed counts jobs that ran the checker (cache misses).
		Executed uint64 `json:"executed"`
		// CacheHits counts jobs served from the result cache.
		CacheHits uint64 `json:"cache_hits"`
		// StatesTotal is the number of abstract states enumerated.
		StatesTotal uint64 `json:"states_total"`
		// EnumBusyWallS is wall-clock time spent in the enumerator.
		EnumBusyWallS float64 `json:"enum_busy_wall_s"`
		// StatesPerWallSecond is the engine's aggregate throughput.
		StatesPerWallSecond float64 `json:"states_per_wall_second"`
	} `json:"litmus"`
	// Latency summarizes executed-job wall time: count, mean, and the
	// p50/p99 quantiles (upper bounds at the histogram's power-of-two
	// bucket resolution). Cache hits are not samples.
	Latency LatencySummary `json:"latency"`
	// LatencyMS is the executed-job wall-time histogram
	// (metrics.Histogram's JSON form; cache hits are not samples).
	LatencyMS json.RawMessage `json:"latency_ms"`
	// SimMessages aggregates simulated network messages over every run
	// (metrics.Collector's JSON form).
	SimMessages json.RawMessage `json:"sim_messages"`
	// Faults aggregates fault-plane injections and transport recovery
	// over executed sim jobs that enabled fault injection.
	Faults metrics.FaultCounters `json:"faults"`
	// RMR aggregates remote-memory-reference classification (local vs
	// remote shared references, plus writebacks) over executed sim jobs.
	RMR metrics.RMRCounters `json:"rmr"`
}

// LatencySummary is the quantile summary of a latency histogram.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  uint64  `json:"p50_ms"`
	P99MS  uint64  `json:"p99_ms"`
	MaxMS  uint64  `json:"max_ms"`
}

// summarize reduces a histogram to its headline quantiles.
func summarize(h *metrics.Histogram) LatencySummary {
	return LatencySummary{
		Count:  h.Count(),
		MeanMS: h.Mean(),
		P50MS:  h.Quantile(0.50),
		P99MS:  h.Quantile(0.99),
		MaxMS:  h.Max(),
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var snap MetricsSnapshot
	snap.UptimeS = time.Since(s.start).Seconds()
	snap.Queue.Depth = s.pool.depth()
	snap.Queue.Capacity = s.pool.capacity()
	snap.Workers.Count = s.pool.workers
	snap.Workers.Busy = s.pool.busy.Load()
	snap.Cache = s.cache.stats()
	snap.Jobs.Accepted = s.accepted.Load()
	snap.Jobs.Completed = s.completed.Load()
	snap.Jobs.Failed = s.failed.Load()
	snap.Jobs.TimedOut = s.timedOut.Load()
	snap.Jobs.Rejected = s.rejected.Load()
	snap.Sim.EventsTotal = s.simEvents.Load()
	snap.Sim.BusyWallS = float64(s.simBusyNS.Load()) / float64(time.Second)
	if snap.Sim.BusyWallS > 0 {
		snap.Sim.EventsPerWallSecond = float64(snap.Sim.EventsTotal) / snap.Sim.BusyWallS
	}
	snap.Sim.JobsSampled = s.jobsSampled.Load()
	if n := snap.Sim.JobsSampled; n > 0 {
		snap.Sim.MeanJobAllocs = float64(s.jobAllocs.Load()) / float64(n)
	}
	snap.Litmus.Jobs = s.litmusJobs.Load()
	snap.Litmus.Executed = s.litmusExecuted.Load()
	snap.Litmus.CacheHits = s.litmusCacheHits.Load()
	snap.Litmus.StatesTotal = s.litmusStates.Load()
	snap.Litmus.EnumBusyWallS = float64(s.litmusBusyNS.Load()) / float64(time.Second)
	if snap.Litmus.EnumBusyWallS > 0 {
		snap.Litmus.StatesPerWallSecond = float64(snap.Litmus.StatesTotal) / snap.Litmus.EnumBusyWallS
	}

	s.statsMu.Lock()
	snap.Faults = s.faults
	snap.RMR = s.rmr
	snap.Latency = summarize(&s.latency)
	lat, err := json.Marshal(&s.latency)
	if err == nil {
		snap.LatencyMS = lat
		snap.SimMessages, err = json.Marshal(&s.msgs)
	}
	s.statsMu.Unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "marshaling metrics: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// maxBodyBytes caps every POST body. The largest legitimate request, an
// inline litmus test, is a few KiB.
const maxBodyBytes = 1 << 20

// decodeBody decodes a JSON request body, rejecting unknown fields so that
// a typoed parameter fails loudly instead of silently hitting defaults
// (and caching under an unintended key). An empty body means "all
// defaults". On failure it writes the error response, 413 for a body
// over maxBodyBytes and 400 otherwise, and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil || errors.Is(err, io.EOF):
		return true
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
	default:
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
	}
	return false
}
