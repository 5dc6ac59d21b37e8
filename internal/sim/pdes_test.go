package sim

import (
	"errors"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// ringModel is a deterministic multi-lane kernel workload: each lane
// receives tokens, does some local work, and forwards them around the ring
// with a cross-lane latency >= the lookahead. Every delivery is folded into
// a per-lane log keyed by (time, payload), so two runs agree iff their
// full delivery schedules agree.
type ringModel struct {
	p     *Parallel
	lanes int32
	la    Time
	logs  [][]uint64
	live  []int // tokens still circulating, per lane-of-origin
}

type ringNode struct {
	m  *ringModel
	id int32
}

func (rn *ringNode) OnDeliver(payload any) {
	m := rn.m
	v := payload.(uint64)
	e := m.p.Lane(int(rn.id))
	m.logs[rn.id] = append(m.logs[rn.id], v*0x9e3779b97f4a7c15+uint64(e.Now()))
	hops := v & 0xffff
	if hops == 0 {
		return
	}
	id := rn.id
	// Local compute before forwarding: exercises same-window local events.
	e.After(3, func() {
		dst := (id + 1) % m.lanes
		m.p.Post(id, dst, e.Now()+m.la, &ringNode{m, dst}, v-1)
	})
}

func runRing(t *testing.T, lanes int, jitter uint64, horizon Time) (*ringModel, error) {
	t.Helper()
	p := NewParallel(lanes)
	p.SetLookahead(7)
	if horizon != 0 {
		p.SetHorizon(horizon)
	}
	if jitter != 0 {
		p.SetJitter(jitter)
	}
	m := &ringModel{p: p, lanes: int32(lanes), la: 7, logs: make([][]uint64, lanes)}
	for i := 0; i < lanes; i++ {
		i := int32(i)
		e := p.Lane(int(i))
		// Each lane launches two tokens with different hop budgets and
		// staggered start times.
		e.At(Time(i), func() {
			dst := (i + 1) % m.lanes
			m.p.Post(i, dst, e.Now()+m.la, &ringNode{m, dst}, uint64(40+i))
		})
		e.At(Time(2*i+1), func() {
			dst := (i + 2) % m.lanes
			m.p.Post(i, dst, e.Now()+m.la, &ringNode{m, dst}, uint64(25))
		})
	}
	err := p.Run()
	return m, err
}

// TestParallelJitterPermutes checks that a nonzero jitter seed actually
// yields a different (but still deterministic) schedule.
func TestParallelJitterPermutes(t *testing.T) {
	a, err := runRing(t, 8, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runRing(t, 8, 12345, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same physics — same event count — but tie-breaks may reorder
	// same-cycle deliveries. (With this model most deliveries are alone at
	// their cycle, so only assert the runs are internally consistent and
	// event-count-equal.)
	if a.p.Fired() != b.p.Fired() {
		t.Fatalf("jitter changed event count: %d vs %d", a.p.Fired(), b.p.Fired())
	}
}

// TestParallelHorizonComposition: horizon + interrupt + jitter compose
// under the window loop, and two runs of one configuration end in the same
// state. The horizon cuts the ring mid-flight; the interrupt counts
// windows; jitter permutes same-cycle ties.
func TestParallelHorizonComposition(t *testing.T) {
	type outcome struct {
		logs    [][]uint64
		fired   uint64
		now     Time
		windows int
		err     string
	}
	run := func() outcome {
		p := NewParallel(6)
		p.SetLookahead(7)
		p.SetHorizon(500)
		p.SetJitter(99)
		m := &ringModel{p: p, lanes: 6, la: 7, logs: make([][]uint64, 6)}
		windows := 0
		p.SetInterrupt(func() error { windows++; return nil })
		for i := 0; i < 6; i++ {
			i := int32(i)
			e := p.Lane(int(i))
			e.At(Time(i), func() {
				dst := (i + 1) % m.lanes
				// Huge hop budget: only the horizon ends the run.
				m.p.Post(i, dst, e.Now()+m.la, &ringNode{m, dst}, uint64(1_000_000))
			})
		}
		err := p.Run()
		o := outcome{logs: m.logs, fired: p.Fired(), now: p.Now(), windows: windows}
		if err != nil {
			o.err = err.Error()
		}
		return o
	}
	ref := run()
	if ref.err != ErrHorizon.Error() {
		t.Fatalf("expected horizon error, got %q", ref.err)
	}
	if ref.now <= 500 {
		t.Fatalf("horizon GVT should be past the limit, got %d", ref.now)
	}
	if ref.windows == 0 {
		t.Fatal("the interrupt was never polled")
	}
	if got := run(); !reflect.DeepEqual(got, ref) {
		t.Fatalf("a second run diverges:\n got %+v\nwant %+v", got, ref)
	}
}

// TestParallelInterruptStops checks an interrupt error ends the run, on
// its eleventh poll, with the same partial state every time (windows are
// the poll granularity).
func TestParallelInterruptStops(t *testing.T) {
	boom := errors.New("boom")
	run := func() (uint64, Time, string) {
		p := NewParallel(4)
		p.SetLookahead(7)
		m := &ringModel{p: p, lanes: 4, la: 7, logs: make([][]uint64, 4)}
		polls := 0
		p.SetInterrupt(func() error {
			polls++
			if polls > 10 {
				return boom
			}
			return nil
		})
		for i := 0; i < 4; i++ {
			i := int32(i)
			e := p.Lane(int(i))
			e.At(0, func() {
				dst := (i + 1) % m.lanes
				m.p.Post(i, dst, e.Now()+m.la, &ringNode{m, dst}, uint64(1_000_000))
			})
		}
		err := p.Run()
		if !errors.Is(err, boom) {
			t.Fatalf("want boom, got %v", err)
		}
		return p.Fired(), p.Now(), fingerprintLogs(m.logs)
	}
	f1, n1, l1 := run()
	f2, n2, l2 := run()
	if f1 != f2 || n1 != n2 || l1 != l2 {
		t.Fatalf("interrupted runs diverge: (%d,%d,%s) vs (%d,%d,%s)", f1, n1, l1, f2, n2, l2)
	}
}

func fingerprintLogs(logs [][]uint64) string {
	var h uint64 = 1469598103934665603
	for _, l := range logs {
		for _, v := range l {
			h = (h ^ v) * 1099511628211
		}
		h = (h ^ 0xff) * 1099511628211
	}
	return string(rune(h%26+'a')) + string(rune((h>>8)%26+'a')) + string(rune((h>>16)%26+'a'))
}

// TestParallelStop checks Stop ends the run cleanly at a window boundary,
// with the same state every time.
func TestParallelStop(t *testing.T) {
	run := func() (uint64, Time) {
		p := NewParallel(4)
		p.SetLookahead(7)
		m := &ringModel{p: p, lanes: 4, la: 7, logs: make([][]uint64, 4)}
		for i := 0; i < 4; i++ {
			i := int32(i)
			e := p.Lane(int(i))
			e.At(0, func() {
				dst := (i + 1) % m.lanes
				m.p.Post(i, dst, e.Now()+m.la, &ringNode{m, dst}, uint64(1_000_000))
			})
		}
		p.Lane(2).At(200, func() { p.Lane(2).Stop() })
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		return p.Fired(), p.Now()
	}
	f1, n1 := run()
	f2, n2 := run()
	if f1 != f2 || n1 != n2 {
		t.Fatalf("stopped runs diverge: (%d,%d) vs (%d,%d)", f1, n1, f2, n2)
	}
	if n1 < 200 {
		t.Fatalf("run stopped before the Stop event: now %d", n1)
	}
}

// TestParallelPanicLowestLane: when two lanes panic in one window, the
// panic that reaches Run's caller is the lower lane's, though the higher
// lane panics first in simulated time; and Run leaves no goroutine behind.
func TestParallelPanicLowestLane(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewParallel(8)
	p.SetLookahead(4)
	ran := make([]int, 8) // events fired per lane
	for i := 0; i < 8; i++ {
		for at := Time(0); at < 3; at++ {
			p.Lane(i).At(at, func() { ran[i]++ })
		}
	}
	p.Lane(6).At(1, func() { panic("lane 6") })
	p.Lane(3).At(2, func() { panic("lane 3") })
	got := func() (v any) {
		defer func() { v = recover() }()
		_ = p.Run()
		return nil
	}()
	if got != "lane 3" {
		t.Fatalf("re-raised %v, want lane 3's panic", got)
	}
	if ran[0] != 3 || ran[3] != 3 || ran[6] != 0 {
		t.Fatalf("events fired per lane %v: lanes 0-3 run their window, lane 6 none", ran)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Run, %d before", n, before)
	}
}

// TestPostLookaheadViolationPanics: posting inside the current window is a
// model bug (the destination lane may already be past the post time) and
// must fail loudly.
func TestPostLookaheadViolationPanics(t *testing.T) {
	p := NewParallel(2)
	p.SetLookahead(10)
	rn := &ringNode{}
	p.Lane(0).At(5, func() {
		// Window is [0+?,..): by the time this fires, wend >= 10+... — a
		// post at now+1 is always inside it.
		p.Post(0, 1, p.Lane(0).Now()+1, rn, uint64(0))
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected lookahead-violation panic")
		}
	}()
	_ = p.Run()
}

// recorder logs the payloads delivered to it, in firing order.
type recorder struct{ got []string }

func (r *recorder) OnDeliver(payload any) { r.got = append(r.got, payload.(string)) }

// TestMergeFiresInKeyOrder pins the ordering contract the window merge rests
// on: the merge appends the outboxes in source-lane order without sorting,
// so the destination heap alone must fire cross-lane posts in key order
// (time, jitter, source lane, source sequence). Three lanes post to a
// fourth from the arbiter hook; the lowest source lane holds the latest
// keys and every outbox is filled in descending key order, so append order
// is key order reversed except where two posts differ by source lane only.
// Among the equal-time posts, f–d differ by jitter, c–e by source lane and
// d–c by sequence.
func TestMergeFiresInKeyOrder(t *testing.T) {
	type keyed struct {
		name     string
		src      int32
		dt       Time // offset from the first window's end
		jit, seq uint64
	}
	posts := []keyed{
		{"a", 0, 2, 0, 0},
		{"b", 0, 1, 9, 1},
		{"c", 1, 1, 5, 7},
		{"d", 1, 1, 5, 3},
		{"e", 2, 1, 5, 0},
		{"f", 2, 1, 1, 2},
		{"g", 2, 0, 7, 9},
	}
	const want = "g f d c e b a"
	p := NewParallel(4)
	p.SetLookahead(8)
	rec := &recorder{}
	p.Lane(3).At(0, func() {})
	posted := false
	p.SetArbiter(func() {
		if posted {
			return
		}
		posted = true
		for _, q := range posts {
			p.PostKeyed(q.src, 3, p.wend+q.dt, q.jit, q.seq, rec, q.name)
		}
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rec.got, " "); got != want {
		t.Errorf("destination fired %q, want key order %q", got, want)
	}
}

// TestParallelDrainedOutcome checks the drained return: nil error, clock at
// the last fired event.
func TestParallelDrainedOutcome(t *testing.T) {
	m, err := runRing(t, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.p.Pending() != 0 {
		t.Fatalf("%d events still pending after drain", m.p.Pending())
	}
	if m.p.Now() == 0 {
		t.Fatal("clock did not advance")
	}
}

// firing is one entry of a kernel's fire log: when, which shape, which
// event.
type firing struct {
	at   Time
	kind int
	id   uint64
}

// firingLog implements Stepper and Receiver and logs each typed event it
// receives against its engine's clock.
type firingLog struct {
	e   *Engine
	log []firing
}

func (f *firingLog) OnStep(id uint64) { f.log = append(f.log, firing{f.e.Now(), 1, id}) }
func (f *firingLog) OnDeliver(v any)  { f.log = append(f.log, firing{f.e.Now(), 2, v.(uint64)}) }
func (f *firingLog) note(id uint64)   { f.log = append(f.log, firing{f.e.Now(), 0, id}) }

// seededSchedule queues one seeded schedule on e: closure, step and deliver
// events spread over few cycles so most share theirs, a fifth of them
// cancelled up front, closures that schedule same-cycle and later
// follow-ups, and closures that cancel a still-pending event mid-run. With
// stop set, the first closure numbered 1500 or more to fire calls Stop.
func seededSchedule(e *Engine, seed uint64, stop bool) *firingLog {
	f := &firingLog{e: e}
	r := rand.New(rand.NewPCG(seed, 3))
	var hs []Handle
	for i := uint64(0); i < 3000; i++ {
		at := Time(r.IntN(300))
		switch r.IntN(3) {
		case 0:
			id := i
			hs = append(hs, e.At(at, func() {
				f.note(id)
				if stop && id >= 1500 {
					e.Stop()
				}
				switch id % 4 {
				case 0:
					e.AfterStep(0, f, id+1<<32)
				case 1:
					e.After(Time(id%7), func() { f.note(id + 2<<32) })
				case 2:
					hs[(id*7919)%uint64(len(hs))].Cancel()
				}
			}))
		case 1:
			hs = append(hs, e.AtStep(at, f, i))
		default:
			hs = append(hs, e.AtDeliver(at, f, i))
		}
	}
	for _, h := range hs {
		if r.IntN(5) == 0 {
			h.Cancel()
		}
	}
	return f
}

// TestOneLaneMatchesEngine: a one-lane Parallel run is the serial engine.
// The same seeded schedule — typed and closure events, cancellations,
// same-cycle ties — fires in the same order, with the same Fired and Now,
// on NewEngine and on NewParallel(1), at jitter 0 and 7; and the two agree
// on the horizon (error and clock), on the interrupt's error, and on Stop.
func TestOneLaneMatchesEngine(t *testing.T) {
	stopErr := errors.New("interrupted")
	type outcome struct {
		log     []firing
		fired   uint64
		now     Time
		pending int
		err     error
	}
	type limits struct {
		horizon   Time
		interrupt bool
		stop      bool
	}
	// interrupt fails on its third poll: at 2048 fired events, as both
	// kernels poll every 1024.
	interrupt := func() func() error {
		polls := 0
		return func() error {
			if polls++; polls == 3 {
				return stopErr
			}
			return nil
		}
	}
	serial := func(seed, jitter uint64, l limits) outcome {
		e := NewEngine()
		e.SetJitter(jitter)
		if l.horizon != 0 {
			e.SetHorizon(l.horizon)
		}
		if l.interrupt {
			e.SetInterrupt(interrupt())
		}
		f := seededSchedule(e, seed, l.stop)
		err := e.Run()
		return outcome{f.log, e.Fired(), e.Now(), e.Pending(), err}
	}
	oneLane := func(seed, jitter uint64, l limits) outcome {
		p := NewParallel(1)
		p.SetJitter(jitter)
		if l.horizon != 0 {
			p.SetHorizon(l.horizon)
		}
		if l.interrupt {
			p.SetInterrupt(interrupt())
		}
		f := seededSchedule(p.Lane(0), seed, l.stop)
		err := p.Run()
		return outcome{f.log, p.Fired(), p.Now(), p.Pending(), err}
	}
	for _, jitter := range []uint64{0, 7} {
		for seed := uint64(1); seed <= 3; seed++ {
			drained := serial(seed, jitter, limits{})
			if drained.fired < 2048 || drained.pending != 0 {
				t.Fatalf("the schedule fired %d events and left %d pending", drained.fired, drained.pending)
			}
			for name, l := range map[string]limits{
				"drain":     {},
				"horizon":   {horizon: 150},
				"interrupt": {interrupt: true},
				"stop":      {stop: true},
			} {
				want := serial(seed, jitter, l)
				if name != "drain" && want.fired >= drained.fired {
					t.Fatalf("%s did not end the run early: %d events fired", name, want.fired)
				}
				if got := oneLane(seed, jitter, l); !reflect.DeepEqual(got, want) {
					t.Fatalf("jitter %d seed %d %s: one lane diverges from the engine: fired/now/pending/err %d/%d/%d/%v, want %d/%d/%d/%v",
						jitter, seed, name, got.fired, got.now, got.pending, got.err,
						want.fired, want.now, want.pending, want.err)
				}
				wantErr := map[string]error{"horizon": ErrHorizon, "interrupt": stopErr}[name]
				if want.err != wantErr {
					t.Fatalf("%s: err %v, want %v", name, want.err, wantErr)
				}
			}
		}
	}
}
