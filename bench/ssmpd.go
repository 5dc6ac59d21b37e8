package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"time"

	"ssmp/internal/litmus"
	"ssmp/internal/msg"
	"ssmp/internal/server"
)

// ssmpdRate is the open loop's fixed offered rate, requests per second. It
// keeps the process at about a quarter of two CPUs, so that a slow spell of
// the host does not push the daemon into a growing backlog.
const ssmpdRate = 80

// requestClasses are the kinds of request in the mix.
var requestClasses = []string{"hot", "cold", "litmus", "batch", "kv", "metrics"}

// request is one generated ssmpd request.
type request struct {
	class string // one of requestClasses
	path  string
	body  string // empty for GET
}

// reply is what the client saw for one request.
type reply struct {
	status int
	body   []byte
	err    error
	lat    time.Duration // from the request's due time
}

// ssmpdJob drives server.New behind an in-process HTTP server, open loop at
// ssmpdRate over two client connections.
type ssmpdJob struct {
	seed   uint64
	tm     tamper
	names  []string          // litmus corpus names
	primed map[string][]byte // hot-spec results by cache key, from warm
	srv    *server.Server
	ts     *httptest.Server
	client *http.Client
	used   bool
}

func setupSSMPD(seed uint64, tm tamper) (job, error) {
	hand, err := litmus.Corpus()
	if err != nil {
		return nil, err
	}
	gen, err := litmus.Generated()
	if err != nil {
		return nil, err
	}
	j := &ssmpdJob{seed: seed, tm: tm}
	for _, t := range append(hand, gen...) {
		j.names = append(j.names, t.Name)
	}
	j.start()
	return j, nil
}

func (j *ssmpdJob) start() {
	j.srv = server.New(server.Config{Workers: 2})
	j.ts = httptest.NewServer(j.srv.Handler())
	j.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
}

func (j *ssmpdJob) close() {
	j.client.CloseIdleConnections()
	j.ts.Close()
	_ = j.srv.Shutdown(context.Background()) // every job has finished by now
}

// warm opens both connections and primes the daemon's cache with the 32
// hot specs, as a daemon that has served its hot set before holds them, so
// hot requests in the measured window are cache hits. The primed results
// are what those hits must repeat.
func (j *ssmpdJob) warm() error {
	j.primed = map[string][]byte{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for c := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := c; k < 32; k += len(errs) {
				q := request{"hot", "/v1/sim", hotSpec(k)}
				key, result, err := j.do(q, time.Now(), -1, -1, nil).decode(true)
				if err != nil {
					errs[c] = fmt.Errorf("priming %s: %w", q.body, err)
					return
				}
				mu.Lock()
				j.primed[key] = result
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// The mix is synthetic: no recorded daemon traffic exists to replay. Its
// shares are the plan's 60/25/10/5; its request shapes are the ones the
// repository documents (README.md's /v1/sim, /v1/litmus and batch
// examples, the daemon's own defaults), kept where the fixed offered rate
// allows: a 32-node WBI work-queue sim takes about 100 ms, so at 50 cold
// sims per second only CBL sims can be cold without saturating 2 workers.

// hotSpec is one of the 32 fixed sim specs of the hot set: 16 and 32
// nodes, CBL and WBI, work queue and sync model, the default grain, 4
// seeds from README.md's seed 7 on.
func hotSpec(k int) string {
	proto, wl := "cbl", "queue"
	if k&2 != 0 {
		proto = "wbi"
	}
	if k&4 != 0 {
		wl = "sync"
	}
	return fmt.Sprintf(`{"procs":%d,"protocol":%q,"workload":%q,"seed":%d}`, 16<<(k&1), proto, wl, 7+k/8)
}

// mixBlock is the request mix: every block of 20 requests holds exactly
// these classes, in a seeded order, so every run has the same mix.
var mixBlock = [20]string{
	"hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot",
	"cold", "cold", "cold", "cold", "cold", "litmus", "litmus", "kv",
}

// schedule returns a run's n requests: 60% hot sims; 25% CBL sims on 16 or
// 32 nodes with fresh seeds; 10% litmus requests, each a corpus test by
// name at the daemon's default 64 seeds (the corpus visited in a seeded
// order) except every tenth, which is the hand-written corpus as one batch
// job; 5% KV runs in README.md's 8-node shape; and one GET /metrics per
// second in place of a drawn request.
func (j *ssmpdJob) schedule(n int) []request {
	r := stream(j.seed, 0)
	tests := &passOrder{seed: mix(j.seed), n: len(j.names)}
	var perm []int
	qs := make([]request, n)
	litmusN, named := 0, 0
	for i := range qs {
		if i%len(mixBlock) == 0 {
			perm = r.perm(len(mixBlock))
		}
		if i%ssmpdRate == ssmpdRate-1 {
			qs[i] = request{"metrics", "/metrics", ""}
			continue
		}
		switch mixBlock[perm[i%len(mixBlock)]] {
		case "hot":
			qs[i] = request{"hot", "/v1/sim", hotSpec(r.intn(32))}
		case "cold":
			wl := "queue"
			if r.intn(2) == 1 {
				wl = "sync"
			}
			qs[i] = request{"cold", "/v1/sim", fmt.Sprintf(`{"procs":%d,"workload":%q,"seed":%d}`, 16<<r.intn(2), wl, r.next())}
		case "litmus":
			if litmusN++; litmusN%10 == 0 {
				qs[i] = request{"batch", "/v1/litmus", `{"batch":"corpus"}`}
			} else {
				qs[i] = request{"litmus", "/v1/litmus", fmt.Sprintf(`{"name":%q}`, j.names[tests.at(named)])}
				named++
			}
		case "kv":
			qs[i] = request{"kv", "/v1/kv", fmt.Sprintf(`{"procs":8,"lock":"cbl","keys":128,"shards":8,"ops":48,"seed":%d}`, r.next())}
		}
		if j.tm == tamperStatus && qs[i].path == "/v1/sim" {
			qs[i].body = `{"procs":3}`
		}
	}
	return qs
}

// do sends one request and reads the whole reply.
func (j *ssmpdJob) do(q request, due time.Time, parent, op int, tr *tracer) reply {
	var r reply
	r.err = tr.span(parent, op, "server", "http "+q.path, func(int) error {
		var resp *http.Response
		var err error
		if q.body == "" {
			resp, err = j.client.Get(j.ts.URL + q.path)
		} else {
			resp, err = j.client.Post(j.ts.URL+q.path, "application/json", bytes.NewBufferString(q.body))
		}
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		r.status = resp.StatusCode
		r.body, err = io.ReadAll(resp.Body)
		return err
	})
	r.lat = time.Since(due)
	return r
}

// run sends a timed window's length of requests at the offered rate.
func (j *ssmpdJob) run(win window, tr *tracer) *pass {
	n := win.ops
	if n == 0 {
		n = int(win.d.Seconds() * ssmpdRate)
	}
	p, _, _ := j.drive(n, tr)
	return p
}

// drive runs n requests open loop: request i is due i/ssmpdRate seconds
// after the start and is sent then, whether or not earlier ones finished.
// Each pass starts from a fresh daemon whose cache holds only the hot set.
func (j *ssmpdJob) drive(n int, tr *tracer) (*pass, []request, []reply) {
	if j.used {
		j.close()
		j.start()
		if err := j.warm(); err != nil {
			return failedPass(fmt.Errorf("restarting the daemon: %w", err)), nil, nil
		}
	}
	j.used = true
	qs := j.schedule(n)
	replies := make([]reply, n)
	p := newPass()
	p.gen = make([]time.Duration, n)
	p.lat = make([]time.Duration, 0, n)
	var wg sync.WaitGroup
	period := time.Second / ssmpdRate
	start := time.Now()
	for i := range qs {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		p.gen[i] = time.Since(due)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr.span(-1, i, "bench", "request", func(id int) error {
				replies[i] = j.do(qs[i], due, id, i, tr)
				return nil
			})
		}(i)
	}
	wg.Wait()
	for i, r := range replies {
		p.lat = append(p.lat, r.lat)
		p.kinds = append(p.kinds, slices.Index(requestClasses, qs[i].class))
		if end := time.Duration(i)*period + r.lat; end > p.elapsed {
			p.elapsed = end
		}
	}
	tr.span(-1, -1, "bench", "check", func(int) error {
		j.check(p, qs, replies)
		return nil
	})
	return p, qs, replies
}

// check fails every non-2xx reply and every reply whose result differs
// from the first reply for the same spec, and folds the results'
// deterministic counters into the pass.
func (j *ssmpdJob) check(p *pass, qs []request, replies []reply) {
	first := map[string][]byte{}
	for key, result := range j.primed {
		if j.tm == tamperBody {
			result = append(result[:len(result):len(result)], ' ')
		}
		first[key] = result
	}
	for i, r := range replies {
		p.attempted++
		q := qs[i]
		p.counts["req_"+q.class]++
		key, result, err := r.decode(q.class != "metrics")
		if err != nil {
			p.fail(fmt.Errorf("request %d %s %s: %w", i, q.path, q.body, err))
			continue
		}
		if q.class == "metrics" {
			continue
		}
		if want, ok := first[key]; !ok {
			first[key] = result
		} else if !bytes.Equal(want, result) {
			p.fail(fmt.Errorf("request %d %s: result differs from the first reply for %s", i, q.body, key))
			continue
		}
		if err := addReplyCounts(p, q.class, result); err != nil {
			p.fail(fmt.Errorf("request %d: %w", i, err))
		}
	}
}

// decode fails a reply that is an error or not 2xx and, for a job reply,
// returns its cache key and result.
func (r reply) decode(job bool) (key string, result []byte, err error) {
	if r.err != nil {
		return "", nil, r.err
	}
	if r.status < 200 || r.status > 299 {
		return "", nil, fmt.Errorf("status %d: %s", r.status, bytes.TrimSpace(r.body))
	}
	if !job {
		return "", nil, nil
	}
	var env struct {
		Key    string          `json:"key"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(r.body, &env); err != nil {
		return "", nil, fmt.Errorf("decoding reply: %w", err)
	}
	return env.Key, env.Result, nil
}

func addReplyCounts(p *pass, class string, result []byte) error {
	c := p.counts
	switch class {
	case "hot", "cold":
		var res server.SimResult
		if err := json.Unmarshal(result, &res); err != nil {
			return err
		}
		c["events"] += float64(res.Events)
		c["messages"] += float64(res.Messages)
		c["queue_cycles"] += res.MeanNetQueueing * float64(res.Messages)
		if res.RMR != nil {
			c["rmr_remote"] += float64(res.RMR.Remote)
		}
		if res.ByKind != nil {
			for cl := msg.Class(0); int(cl) < msg.NumClasses; cl++ {
				c[cl.String()] += float64(res.ByKind.Class(cl))
			}
		}
	case "kv":
		var res server.KVResult
		if err := json.Unmarshal(result, &res); err != nil {
			return err
		}
		c["kv_cycles"] += float64(res.Cycles)
	case "batch":
		var rep server.LitmusBatchReport
		if err := json.Unmarshal(result, &rep); err != nil {
			return err
		}
		if rep.Failed > 0 || rep.Total == 0 {
			return fmt.Errorf("litmus batch %s: %d of %d tests failed", rep.Batch, rep.Failed, rep.Total)
		}
		c["states"] += float64(rep.States)
	case "litmus":
		var rep litmus.Report
		if err := json.Unmarshal(result, &rep); err != nil {
			return err
		}
		if !rep.Ok() {
			return fmt.Errorf("litmus %s failed: %v %v", rep.Name, rep.Violations, rep.AssertFailures)
		}
		c["states"] += float64(rep.States)
		c["pruned"] += float64(rep.Pruned)
	}
	return nil
}
