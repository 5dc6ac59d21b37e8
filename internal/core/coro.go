//go:build go1.23

// The build constraint raises this file's language version to go1.23, the
// first with iter.Pull, while the module's go line stays at 1.22.

package core

import (
	"iter"

	"ssmp/internal/mem"
)

// start builds the program's coroutine and schedules its first step. The
// coroutine runs the program and then replays any trailing local time, so
// the completion cycle (and Result.Cycles) includes it. Its recover absorbs
// an abort's unwind and keeps any other panic as the processor's error.
func (p *Proc) start(prog Program) {
	p.runs = true
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, aborted := r.(abortSignal); !aborted {
					p.err = r
				}
			}
			p.finish()
		}()
		if p.m.aborting {
			return
		}
		prog(p)
		p.sync()
	})
	p.eng.AtStep(0, p, stepResume)
}

// resume switches to the program's coroutine, handing it w, and returns
// when the program parks on its next operation (or finishes). Called from
// the event loop only, through step.
func (p *Proc) resume(w mem.Word) {
	p.w = w
	p.next()
}

// wait parks the program until the event loop resumes it, and returns the
// word the resuming step handed over. Called from the program's coroutine
// only. A resume issued by an abort drain unwinds the program instead of
// returning to it.
func (p *Proc) wait() mem.Word {
	p.parks++
	p.yield(struct{}{})
	if p.m.aborting {
		panic(abortSignal{})
	}
	return p.w
}
