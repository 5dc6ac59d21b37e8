// Package fan runs independent, indexed jobs on a bounded set of
// goroutines with a result that does not depend on scheduling.
//
// Job i is expected to write its result into slot i of a caller-owned
// slice, so the assembled output is identical at any worker count; what
// makes that safe is that jobs share nothing they write. Failures are
// reported as the serial loop would report them: the lowest-indexed job
// that failed decides, whichever worker happened to fail first.
package fan

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Run runs job(0) … job(n-1) on up to workers goroutines and waits for
// them. Workers ≤ 0 means GOMAXPROCS, and never more than n run; with one
// worker every job runs inline on the caller, in index order.
//
// A failure is a returned error or a panic. After the first failure no
// further index is started, but every index below it has already started
// and runs to the end, so the lowest failing index is known: Run re-raises
// its panic on the caller's goroutine or returns its error, exactly what
// the serial loop would do.
func Run(n, workers int, job func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}

	// The caller is the last worker.
	p := &pool{n: n, job: job, low: n}
	p.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go p.worker()
	}
	p.work()
	p.wg.Wait()
	if p.lowPanic != nil {
		panic(p.lowPanic)
	}
	return p.lowErr
}

// pool is the shared state of one parallel Run.
type pool struct {
	n    int
	job  func(int) error
	next atomic.Int64 // indices start in increasing order
	stop atomic.Bool
	wg   sync.WaitGroup

	mu       sync.Mutex
	low      int // the lowest failing index; n while none has failed
	lowErr   error
	lowPanic any // never nil for a panic: panic(nil) recovers as *runtime.PanicNilError
}

func (p *pool) worker() {
	defer p.wg.Done()
	p.work()
}

func (p *pool) work() {
	for !p.stop.Load() {
		i := int(p.next.Add(1) - 1)
		if i >= p.n {
			return
		}
		p.run(i)
	}
}

func (p *pool) run(i int) {
	defer func() {
		if r := recover(); r != nil {
			p.fail(i, nil, r)
		}
	}()
	if err := p.job(i); err != nil {
		p.fail(i, err, nil)
	}
}

func (p *pool) fail(i int, err error, pan any) {
	p.mu.Lock()
	if i < p.low {
		p.low, p.lowErr, p.lowPanic = i, err, pan
	}
	p.mu.Unlock()
	p.stop.Store(true)
}
