package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"ssmp/internal/sim"
)

// spinProgs returns programs that never finish: each processor ping-pongs a
// shared word forever. Used to exercise the early-exit paths.
func spinProgs(nodes int) []Program {
	progs := make([]Program, nodes)
	for i := range progs {
		progs[i] = func(p *Proc) {
			for {
				p.WriteGlobal(0, p.Read(0)+1)
			}
		}
	}
	return progs
}

func TestRunContextCancelUnwindsCleanly(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := NewMachine(DefaultConfig(4))
	_, err := m.RunContext(ctx, spinProgs(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	waitGoroutines(t, before)
}

func TestRunContextDeadlineUnwindsCleanly(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	m := NewMachine(DefaultConfig(4))
	_, err := m.RunContext(ctx, spinProgs(4))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	waitGoroutines(t, before)
}

func TestHorizonUnwindsCleanly(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := DefaultConfig(4)
	cfg.Horizon = 10_000
	m := NewMachine(cfg)
	if _, err := m.Run(spinProgs(4)); err == nil {
		t.Fatal("want horizon error, got nil")
	}
	waitGoroutines(t, before)
}

func TestDeadlockUnwindsCleanly(t *testing.T) {
	before := runtime.NumGoroutine()
	progs := make([]Program, 2)
	progs[0] = func(p *Proc) {
		p.WriteLock(0)
		// Never unlocks; processor 1 blocks forever.
	}
	progs[1] = func(p *Proc) {
		p.Think(100)
		p.WriteLock(0)
	}
	m := NewMachine(DefaultConfig(2))
	_, err := m.Run(progs)
	var dl *ErrDeadlock
	if !errors.As(err, &dl) {
		t.Fatalf("want ErrDeadlock, got %v", err)
	}
	if len(dl.Stuck) == 0 {
		t.Fatal("deadlock error names no stuck processors")
	}
	waitGoroutines(t, before)
}

// TestEventPanicUnwindsCleanly: an event that panics mid-run surfaces on
// Run's caller — a lane's panic included, so it cannot kill the process —
// and leaves no program goroutine parked behind it, on one lane and on
// many.
func TestEventPanicUnwindsCleanly(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			before := runtime.NumGoroutine()
			cfg := DefaultConfig(4)
			cfg.SimWorkers = workers
			m := NewMachine(cfg)
			m.par.Lane(m.Lanes()-1).At(20, func() { panic("boom") })
			got := func() (v any) {
				defer func() { v = recover() }()
				m.Run(spinProgs(4))
				return nil
			}()
			if got != "boom" {
				t.Fatalf("Run's caller recovered %v, want the event's panic", got)
			}
			waitGoroutines(t, before)
		})
	}
}

// TestRunOnLockedThread: Run's caller may be locked to its OS thread. On
// one lane the programs' coroutines are made and resumed on the caller's
// thread; on many, Run makes them on a goroutine of its own, so lane
// workers may resume them. Either way a run that finishes, a program that
// panics and a run cut at its horizon come back as Run's error, not as a
// fatal error, and leave no goroutine behind.
func TestRunOnLockedThread(t *testing.T) {
	count := func(p *Proc) {
		for i := 0; i < 8; i++ {
			p.WriteGlobal(0, p.Read(0)+1)
		}
	}
	kaput := func(p *Proc) { p.Think(5); panic("kaput") }
	for _, workers := range []int{0, 2} {
		for _, c := range []struct {
			name    string
			progs   []Program
			horizon sim.Time // 0 keeps the default
			want    string   // in Run's error; empty when Run succeeds
		}{
			{"finishes", []Program{count, count, count, count}, 0, ""},
			{"program-panics", []Program{count, kaput, count, count}, 0, "processor 1 panicked: kaput"},
			{"horizon", spinProgs(4), 10_000, "horizon exceeded"},
		} {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, c.name), func(t *testing.T) {
				before := runtime.NumGoroutine()
				cfg := DefaultConfig(4)
				cfg.SimWorkers = workers
				if c.horizon != 0 {
					cfg.Horizon = c.horizon
				}
				m := NewMachine(cfg)
				if many := m.Lanes() > 1; many != (workers > 0) {
					t.Fatalf("%d lanes at %d workers", m.Lanes(), workers)
				}
				errc := make(chan error)
				go func() {
					runtime.LockOSThread()
					defer runtime.UnlockOSThread()
					_, err := m.Run(c.progs)
					errc <- err
				}()
				err := <-errc
				if ok := c.want == "" && err == nil || c.want != "" && err != nil && strings.Contains(err.Error(), c.want); !ok {
					t.Fatalf("Run = %v, want %q", err, c.want)
				}
				waitGoroutines(t, before)
			})
		}
	}
}

// waitGoroutines asserts the goroutine count returns to its pre-run level:
// each program's coroutine runs on a goroutine of its own until it
// finishes or is unwound. The wait allows scheduler slack for goroutines
// that exit after Run returns.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

// TestProgramPanicUnwindsCleanly: two programs panic, one inline and one at
// issue on the event loop (a full lock cache, issued by the last hop of its
// local-time replay and handed back to the program). On many lanes a lane
// worker resumes the programs. Either way Run reports the lowest panicking
// processor, the other panic is kept as its processor's error, and every
// program's coroutine is gone when Run returns.
func TestProgramPanicUnwindsCleanly(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			before := runtime.NumGoroutine()
			cfg := DefaultConfig(4)
			cfg.SimWorkers = workers
			cfg.LockEntries = 1
			m := NewMachine(cfg)
			if many := m.Lanes() > 1; many != (workers > 0) {
				t.Fatalf("%d lanes at %d workers", m.Lanes(), workers)
			}
			progs := make([]Program, 4)
			progs[0] = func(p *Proc) {
				for i := 0; i < 8; i++ {
					p.WriteGlobal(0, p.Read(0)+1)
				}
			}
			progs[1] = func(p *Proc) {
				p.WriteLock(32)
				p.Think(5)
				p.WriteLock(64) // exceeds the 1-entry lock cache
			}
			progs[2] = func(p *Proc) {
				p.Read(96)
				panic("inline")
			}
			progs[3] = progs[0]
			_, err := m.Run(progs)
			if err == nil || !strings.Contains(err.Error(), "processor 1 panicked") ||
				!strings.Contains(err.Error(), "lock cache full") {
				t.Fatalf("err = %v, want lock cache full as processor 1's panic", err)
			}
			if got := m.Proc(2).err; got != "inline" {
				t.Fatalf("processor 2 error = %v, want its inline panic", got)
			}
			waitGoroutines(t, before)
		})
	}
}
