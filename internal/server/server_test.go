package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ssmp/internal/harness"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("reading body: %v", err)
	}
	return resp, buf.Bytes()
}

// smallSim is a sim spec cheap enough for unit tests.
const smallSim = `{"procs":2,"workload":"queue","grain":32,"tasks":8,"seed":7}`

func TestSimCacheHitSkipsResimulation(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 2})

	resp1, body1 := postJSON(t, ts.URL+"/v1/sim", smallSim)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST: %d: %s", resp1.StatusCode, body1)
	}
	resp2, body2 := postJSON(t, ts.URL+"/v1/sim", smallSim)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second POST: %d: %s", resp2.StatusCode, body2)
	}

	var r1, r2 JobResponse
	if err := json.Unmarshal(body1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Fatal("first request claims a cache hit")
	}
	if !r2.Cached {
		t.Fatal("second identical request missed the cache")
	}
	if r1.Key != r2.Key {
		t.Fatalf("keys differ: %s vs %s", r1.Key, r2.Key)
	}
	res1, _ := json.Marshal(r1.Result)
	res2, _ := json.Marshal(r2.Result)
	if !bytes.Equal(res1, res2) {
		t.Fatalf("cached payload differs:\n%s\n%s", res1, res2)
	}

	// The counters must agree: one execution, one hit, one miss.
	if st := s.cache.stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}
	if got := s.accepted.Load(); got != 1 {
		t.Fatalf("accepted = %d, want 1 (the hit must not enqueue)", got)
	}
	if got := s.completed.Load(); got != 1 {
		t.Fatalf("completed = %d, want 1", got)
	}
}

func TestQueueFullReturns429(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, QueueDepth: 1})

	// Stuff the single worker and the single queue slot with tasks the
	// test controls, so the HTTP request below deterministically finds
	// the pool full.
	release := make(chan struct{})
	var releaseOnce sync.Once
	t.Cleanup(func() { releaseOnce.Do(func() { close(release) }) })
	started := make(chan struct{})
	var wg sync.WaitGroup
	stuff := func(run func(context.Context) (any, error)) {
		tk := &task{ctx: context.Background(), run: run, done: make(chan struct{})}
		if err := s.pool.submit(tk); err != nil {
			t.Fatalf("stuffing task: %v", err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); <-tk.done }()
	}
	stuff(func(context.Context) (any, error) { close(started); <-release; return nil, nil })
	<-started // the worker holds task 1; task 2 below occupies the queue slot
	stuff(func(context.Context) (any, error) { <-release; return nil, nil })

	resp, body := postJSON(t, ts.URL+"/v1/sim", smallSim)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := s.rejected.Load(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}

	releaseOnce.Do(func() { close(release) })
	wg.Wait()

	// With the pool drained the same job must now be accepted.
	resp2, body2 := postJSON(t, ts.URL+"/v1/sim", smallSim)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("after drain: %d: %s", resp2.StatusCode, body2)
	}
}

func TestPerJobTimeoutCancelsCleanly(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1})

	// A 64-node coarse-grain run takes far longer than 50ms; the
	// deadline must abort it mid-simulation and free the worker.
	big := `{"procs":64,"workload":"queue","grain":512,"tasks":4096,"timeout_ms":50}`
	resp, body := postJSON(t, ts.URL+"/v1/sim", big)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504: %s", resp.StatusCode, body)
	}
	if got := s.timedOut.Load(); got != 1 {
		t.Fatalf("timedOut = %d, want 1", got)
	}

	// The single worker must be free again: a small job completes.
	deadline := time.Now().Add(10 * time.Second)
	for s.pool.busy.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker still busy after timeout")
		}
		time.Sleep(time.Millisecond)
	}
	resp2, body2 := postJSON(t, ts.URL+"/v1/sim", smallSim)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-timeout job: %d: %s", resp2.StatusCode, body2)
	}
	// A failed job must not poison the cache.
	if _, ok := s.cache.get((&SimSpec{Procs: 64, Workload: "queue", Grain: 512, Tasks: 4096}).Key()); ok {
		t.Fatal("timed-out job was cached")
	}
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	s := New(Config{Workers: 1})

	release := make(chan struct{})
	tk := &task{
		ctx:  context.Background(),
		run:  func(context.Context) (any, error) { <-release; return "done", nil },
		done: make(chan struct{}),
	}
	if err := s.pool.submit(tk); err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Shutdown must wait for the in-flight task...
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) with a job still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	// ...refuse new work meanwhile...
	w := httptest.NewRecorder()
	r := httptest.NewRequest("POST", "/v1/sim", strings.NewReader(smallSim))
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status = %d, want 503", w.Code)
	}

	// ...and return once the job finishes.
	close(release)
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after the in-flight job finished")
	}
	select {
	case <-tk.done:
		if tk.err != nil || tk.res != "done" {
			t.Fatalf("drained task: res=%v err=%v", tk.res, tk.err)
		}
	default:
		t.Fatal("Shutdown returned before the in-flight job completed")
	}
}

func TestInflightDedup(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())

	release := make(chan struct{})
	var runs int
	lead := make(chan struct{})
	run := func(context.Context) (any, error) {
		runs++ // single leader: no lock needed, the test asserts runs==1
		close(lead)
		<-release
		return 42, nil
	}

	type outcome struct {
		res    any
		cached bool
		err    error
	}
	results := make(chan outcome, 2)
	go func() {
		res, cached, _, err := s.execute(context.Background(), "k", run)
		results <- outcome{res, cached, err}
	}()
	<-lead // leader is running; the follower below must share, not rerun
	go func() {
		res, cached, _, err := s.execute(context.Background(), "k", run)
		results <- outcome{res, cached, err}
	}()

	// Give the follower a moment to register, then release the leader.
	time.Sleep(50 * time.Millisecond)
	close(release)
	for i := 0; i < 2; i++ {
		o := <-results
		if o.err != nil || o.res != 42 {
			t.Fatalf("outcome %d: %+v", i, o)
		}
	}
	if runs != 1 {
		t.Fatalf("identical concurrent jobs ran %d times, want 1", runs)
	}
}

func TestFigureEndToEnd(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})

	url := ts.URL + "/v1/figure/4?procs=2,4&episodes=2&tasks=12&spawn_prob=0&seed=7"
	resp, body := getJSON(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET figure: %d: %s", resp.StatusCode, body)
	}
	var jr struct {
		Key    string         `json:"key"`
		Cached bool           `json:"cached"`
		Figure harness.Figure `json:"figure"`
	}
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatalf("decoding: %v\n%s", err, body)
	}
	if jr.Figure.Name != "Figure 4" {
		t.Fatalf("figure name = %q", jr.Figure.Name)
	}
	if len(jr.Figure.Series) != 5 {
		t.Fatalf("figure has %d series, want 5", len(jr.Figure.Series))
	}
	for _, series := range jr.Figure.Series {
		if len(series.Points) != 2 {
			t.Fatalf("series %s has %d points, want 2", series.Name, len(series.Points))
		}
	}

	// The served figure must be bit-identical to a direct harness run —
	// the determinism the cache's exactness rests on.
	o := harness.DefaultOptions()
	o.Procs = []int{2, 4}
	o.Episodes = 2
	o.Tasks = 12
	o.SpawnProb = 0
	o.Seed = 7
	want := o.Figure4()
	for i, series := range jr.Figure.Series {
		ws := want.Series[i]
		if series.Name != ws.Name {
			t.Fatalf("series %d name = %q, want %q", i, series.Name, ws.Name)
		}
		for j, p := range series.Points {
			if p != ws.Points[j] {
				t.Fatalf("series %s point %d = %v, want %v", series.Name, j, p, ws.Points[j])
			}
		}
	}

	// Second fetch: served from cache, same payload.
	resp2, body2 := getJSON(t, url)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second GET: %d", resp2.StatusCode)
	}
	var jr2 struct {
		Cached bool           `json:"cached"`
		Figure harness.Figure `json:"figure"`
	}
	if err := json.Unmarshal(body2, &jr2); err != nil {
		t.Fatal(err)
	}
	if !jr2.Cached {
		t.Fatal("second figure fetch missed the cache")
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})

	if resp, body := getJSON(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d: %s", resp.StatusCode, body)
	}

	postJSON(t, ts.URL+"/v1/sim", smallSim)
	postJSON(t, ts.URL+"/v1/sim", smallSim) // cache hit

	resp, body := getJSON(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d: %s", resp.StatusCode, body)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("decoding metrics: %v\n%s", err, body)
	}
	if snap.Workers.Count != 2 {
		t.Fatalf("workers = %d, want 2", snap.Workers.Count)
	}
	if snap.Jobs.Completed != 1 {
		t.Fatalf("completed = %d, want 1", snap.Jobs.Completed)
	}
	if snap.Cache.Hits != 1 {
		t.Fatalf("cache hits = %d, want 1", snap.Cache.Hits)
	}
	// The latency histogram and message counters must round-trip through
	// the shared metrics JSON (one sample; some simulated messages).
	var lat struct {
		Count uint64 `json:"count"`
	}
	if err := json.Unmarshal(snap.LatencyMS, &lat); err != nil || lat.Count != 1 {
		t.Fatalf("latency histogram: %v, %s", err, snap.LatencyMS)
	}
	var msgs struct {
		Total uint64 `json:"total"`
	}
	if err := json.Unmarshal(snap.SimMessages, &msgs); err != nil || msgs.Total == 0 {
		t.Fatalf("sim messages: %v, %s", err, snap.SimMessages)
	}
	// Kernel-throughput counters: one executed sim job was sampled.
	if snap.Sim.EventsTotal == 0 {
		t.Fatal("sim events_total = 0 after an executed job")
	}
	if snap.Sim.EventsPerWallSecond <= 0 {
		t.Fatalf("events_per_wall_second = %g, want > 0", snap.Sim.EventsPerWallSecond)
	}
	if snap.Sim.JobsSampled != 1 {
		t.Fatalf("jobs_sampled = %d, want 1", snap.Sim.JobsSampled)
	}
	if snap.Sim.MeanJobAllocs <= 0 {
		t.Fatalf("mean_job_allocs = %g, want > 0", snap.Sim.MeanJobAllocs)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	cases := []struct {
		name, url, body string
	}{
		{"bad json", "/v1/sim", `{"procs":`},
		{"unknown field", "/v1/sim", `{"prcs":8}`},
		{"bad procs", "/v1/sim", `{"procs":3}`},
		{"bad figure", "/v1/figure", `{"figure":9}`},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+c.url, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400: %s", c.name, resp.StatusCode, body)
		}
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/figure/abc"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-numeric figure path: %d, want 400", resp.StatusCode)
	}
	if resp, _ := getJSON(t, ts.URL+"/v1/figure/4?procs=nope"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad procs query: %d, want 400", resp.StatusCode)
	}
}

// TestOversizedBodyReturns413: every POST endpoint refuses a body over
// maxBodyBytes with 413 instead of buffering it, and the daemon keeps
// serving afterwards.
func TestOversizedBodyReturns413(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	huge := `{"pad":"` + strings.Repeat("a", 2<<20) + `"}`
	for _, path := range []string{"/v1/sim", "/v1/figure", "/v1/kv", "/v1/litmus"} {
		resp, body := postJSON(t, ts.URL+path, huge)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413: %.200s", path, resp.StatusCode, body)
		}
	}
	if resp, body := postJSON(t, ts.URL+"/v1/sim", smallSim); resp.StatusCode != http.StatusOK {
		t.Fatalf("sim after oversized bodies: status = %d: %s", resp.StatusCode, body)
	}
}
