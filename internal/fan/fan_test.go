package fan

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRunFillsEverySlot: every job runs exactly once, at any worker count.
func TestRunFillsEverySlot(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 100
		var runs [n]atomic.Int32
		if err := Run(n, workers, func(i int) error {
			runs[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Errorf("workers=%d: job %d ran %d times", workers, i, got)
			}
		}
	}
}

// TestRunLowestErrorWins: jobs 3 and 7 fail and, with more than one
// worker, job 3 fails only after job 7 has. The error returned is still
// job 3's, as in the serial loop, and every index below 3 ran.
func TestRunLowestErrorWins(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for rep := 0; rep < 200; rep++ {
			var ran [10]atomic.Bool
			failed7 := make(chan struct{})
			err := Run(len(ran), workers, func(i int) error {
				ran[i].Store(true)
				switch i {
				case 3:
					if workers > 1 {
						<-failed7
					}
					return errors.New("job 3")
				case 7:
					close(failed7)
					return errors.New("job 7")
				}
				return nil
			})
			if err == nil || err.Error() != "job 3" {
				t.Fatalf("workers=%d rep %d: error %v, want job 3", workers, rep, err)
			}
			for i := 0; i <= 3; i++ {
				if !ran[i].Load() {
					t.Fatalf("workers=%d rep %d: job %d did not run", workers, rep, i)
				}
			}
		}
	}
}

// TestRunLowestPanicWins: jobs 2 and 5 panic and, with more than one
// worker, job 2 panics only after job 5 has. The value re-raised on the
// caller is always job 2's. A lower job's error outranks a higher job's
// panic, as in the serial loop.
func TestRunLowestPanicWins(t *testing.T) {
	recovered := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}
	for _, workers := range []int{1, 4} {
		for rep := 0; rep < 200; rep++ {
			panicked5 := make(chan struct{})
			got := recovered(func() {
				_ = Run(8, workers, func(i int) error {
					switch i {
					case 2:
						if workers > 1 {
							<-panicked5
						}
						panic("job 2")
					case 5:
						defer close(panicked5)
						panic("job 5")
					}
					return nil
				})
			})
			if got != "job 2" {
				t.Fatalf("workers=%d rep %d: re-raised %v, want job 2", workers, rep, got)
			}
		}
		panicked4 := make(chan struct{})
		var err error
		got := recovered(func() {
			err = Run(8, workers, func(i int) error {
				switch i {
				case 1:
					if workers > 1 {
						<-panicked4
					}
					return errors.New("job 1")
				case 4:
					defer close(panicked4)
					panic("job 4")
				}
				return nil
			})
		})
		if got != nil || err == nil || err.Error() != "job 1" {
			t.Fatalf("workers=%d: error %v and panic %v, want job 1's error alone", workers, err, got)
		}
	}
}

// TestRunGoroutines: n = 0 runs nothing, one worker runs every job on the
// caller, and more workers than jobs start fewer than n goroutines (the
// caller is one of the workers).
func TestRunGoroutines(t *testing.T) {
	for _, workers := range []int{0, 1, 8} {
		if err := Run(0, workers, func(i int) error {
			t.Errorf("workers=%d: n=0 ran job %d", workers, i)
			return nil
		}); err != nil {
			t.Errorf("workers=%d: n=0 returned %v", workers, err)
		}
	}

	base := runtime.NumGoroutine()
	if err := Run(5, 1, func(i int) error {
		if extra := runtime.NumGoroutine() - base; extra != 0 {
			return fmt.Errorf("one worker: job %d saw %d extra goroutines", i, extra)
		}
		return nil
	}); err != nil {
		t.Error(err)
	}

	// All three jobs meet before any returns, so every goroutine Run
	// started is still alive when they count.
	const n = 3
	var (
		mu      sync.Mutex
		arrived int
		all     = make(chan struct{})
		extra   [n]int
	)
	base = runtime.NumGoroutine()
	if err := Run(n, 64, func(i int) error {
		mu.Lock()
		if arrived++; arrived == n {
			close(all)
		}
		mu.Unlock()
		<-all
		extra[i] = runtime.NumGoroutine() - base
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, e := range extra {
		if e >= n {
			t.Errorf("64 workers, %d jobs: job %d saw %d extra goroutines, want < %d", n, i, e, n)
		}
	}
}
