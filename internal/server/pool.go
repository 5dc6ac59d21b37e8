package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// errQueueFull reports that the bounded job queue has no free slot; the
// HTTP layer translates it into 429 + Retry-After.
var errQueueFull = errors.New("server: job queue full")

// errJobPanicked wraps the value of a panic recovered from a job; the HTTP
// layer answers it with 500. Like every job error it is never cached.
var errJobPanicked = errors.New("server: job panicked")

// task is one unit of pool work: a closure plus the channel its waiters
// block on. res/err are written once, before done is closed.
type task struct {
	ctx  context.Context
	run  func(context.Context) (any, error)
	res  any
	err  error
	done chan struct{}
}

// pool is a fixed-size worker pool over a bounded queue. Submission never
// blocks: a full queue is an error, which keeps backpressure at the edge
// of the system instead of in unbounded buffering.
type pool struct {
	queue   chan *task
	wg      sync.WaitGroup
	workers int
	busy    atomic.Int64
}

func newPool(workers, depth int) *pool {
	p := &pool{queue: make(chan *task, depth), workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *pool) worker() {
	defer p.wg.Done()
	for t := range p.queue {
		p.busy.Add(1)
		// A job whose deadline expired while queued is not worth
		// starting; its waiter already gave up.
		if err := t.ctx.Err(); err != nil {
			t.err = err
		} else {
			t.res, t.err = t.execute()
		}
		close(t.done)
		p.busy.Add(-1)
	}
}

// execute runs the job, recovering a panic into an errJobPanicked error so
// that one bad job fails alone and the worker keeps serving.
func (t *task) execute() (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%w: %v", errJobPanicked, r)
		}
	}()
	return t.run(t.ctx)
}

// submit enqueues a task without blocking.
func (p *pool) submit(t *task) error {
	select {
	case p.queue <- t:
		return nil
	default:
		return errQueueFull
	}
}

// depth returns the number of queued (not yet running) tasks.
func (p *pool) depth() int { return len(p.queue) }

// capacity returns the queue's slot count.
func (p *pool) capacity() int { return cap(p.queue) }

// close stops intake and blocks until the workers finish every queued
// task. The caller must guarantee no submit races close (the Server's
// draining flag does).
func (p *pool) close() {
	close(p.queue)
	p.wg.Wait()
}
