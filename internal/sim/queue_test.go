package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// refKey is an event's ordering key as a reference model sees it.
type refKey struct {
	at   Time
	jit  uint64
	lane int32
	seq  uint64
}

func (a refKey) less(b refKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.jit != b.jit {
		return a.jit < b.jit
	}
	if a.lane != b.lane {
		return a.lane < b.lane
	}
	return a.seq < b.seq
}

// keyOf reads the key the engine stamped on a just-scheduled event.
func keyOf(e *Engine, h Handle) refKey {
	r := &e.pool[h.id]
	return refKey{r.at, r.jit, r.lane, r.seq}
}

// orderCheck drives one seeded random schedule through an engine and holds
// a reference model beside it: the key of every pending event. Each firing
// must be the least pending key, which is the order a sort of the pending
// set by (time, jitter, lane, sequence) gives.
type orderCheck struct {
	t       *testing.T
	e       *Engine
	r       *rand.Rand
	pending map[uint64]refKey
	handles []Handle // by event id, every event scheduled
	far     []bool   // by event id: scheduled onto the far heap
	budget  int      // events still to schedule
	massAt  int      // the firing count at which every far entry is cancelled

	fired                        int
	wheelCancels, farCancels     int
	farFires, farInSpan, posDups int
}

// delays are the distances the schedule draws from: the wheel's edges
// (0, 1, 63), the far heap's (64, 65), and thousands of cycles.
var delays = []Time{0, 1, 1, 2, 5, 9, 14, 31, 63, 64, 65, 1000, 4321}

func (q *orderCheck) schedule() {
	if q.budget == 0 {
		return
	}
	q.budget--
	d := delays[q.r.IntN(len(delays))]
	if q.r.IntN(4) == 0 {
		d = Time(q.r.IntN(200))
	}
	id := uint64(len(q.handles))
	h := q.e.AfterStep(d, q, id)
	k := keyOf(q.e, h)
	for _, other := range q.pending {
		if other == k {
			q.posDups++
		}
	}
	q.pending[id] = k
	q.handles = append(q.handles, h)
	q.far = append(q.far, q.e.pool[h.id].far)
}

// victim picks any event ever scheduled, pending or not.
func (q *orderCheck) victim() uint64 { return uint64(q.r.IntN(len(q.handles))) }

func (q *orderCheck) cancel(id uint64) {
	_, live := q.pending[id]
	if got := q.handles[id].Cancel(); got != live {
		q.t.Fatalf("Cancel of event %d reported %v, want %v", id, got, live)
	}
	if !live {
		return
	}
	delete(q.pending, id)
	if q.far[id] {
		q.farCancels++
	} else {
		q.wheelCancels++
	}
}

// OnStep is one firing: it checks the event against the reference, then
// schedules and cancels more from inside the event.
func (q *orderCheck) OnStep(id uint64) {
	k, ok := q.pending[id]
	if !ok {
		q.t.Fatalf("event %d fired but is not pending (cancelled or fired before)", id)
	}
	if k.at != q.e.Now() {
		q.t.Fatalf("event %d fired at %d, due %d", id, q.e.Now(), k.at)
	}
	for other, ko := range q.pending {
		if ko.less(k) {
			q.t.Fatalf("event %d %+v fired before event %d %+v", id, k, other, ko)
		}
	}
	if q.far[id] {
		q.farFires++
	}
	for other, ko := range q.pending {
		if other != id && ko.at == k.at && q.far[other] != q.far[id] {
			q.farInSpan++ // a far and a wheel event due at the same time
			break
		}
	}
	delete(q.pending, id)
	q.fired++
	for n := q.r.IntN(3); n > 0; n-- {
		q.schedule()
	}
	if q.r.IntN(8) == 0 {
		q.cancel(q.victim())
	}
	if q.fired == q.massAt {
		for other := range q.pending {
			if q.far[other] {
				q.cancel(other)
			}
		}
	}
}

// TestQueueOrderMatchesReferenceSort builds seeded random schedules —
// delays of 0, 1, 63, 64, 65 and thousands of cycles, jitter off and on,
// events scheduled and cancelled from inside events, a mass cancel of the
// far heap that sweeps it — and checks every firing against the reference.
// Far events whose time has come inside the wheel's span share their time
// with wheel events and must interleave with them by key.
func TestQueueOrderMatchesReferenceSort(t *testing.T) {
	var wheelCancels, farCancels, farFires, farInSpan int
	for seed := uint64(1); seed <= 12; seed++ {
		for _, jitter := range []uint64{0, seed * 0x2545f4914f6cdd1d} {
			e := NewEngine()
			e.SetJitter(jitter)
			q := &orderCheck{
				t: t, e: e, r: rand.New(rand.NewPCG(seed, jitter)),
				pending: map[uint64]refKey{}, budget: 4000, massAt: 1500,
			}
			for i := 0; i < 300; i++ {
				q.schedule()
			}
			for i := 0; i < 40; i++ {
				q.cancel(q.victim())
			}
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if len(q.pending) != 0 || e.Pending() != 0 {
				t.Fatalf("seed %d jitter %d: drained with %d reference and %d engine events pending", seed, jitter, len(q.pending), e.Pending())
			}
			if e.Fired() != uint64(q.fired) {
				t.Fatalf("seed %d jitter %d: engine fired %d, reference %d", seed, jitter, e.Fired(), q.fired)
			}
			if q.posDups != 0 {
				t.Fatalf("seed %d jitter %d: %d keys repeated", seed, jitter, q.posDups)
			}
			wheelCancels += q.wheelCancels
			farCancels += q.farCancels
			farFires += q.farFires
			farInSpan += q.farInSpan
		}
	}
	// The schedules must reach what the test is for.
	if wheelCancels == 0 || farCancels < 64 || farFires == 0 || farInSpan == 0 {
		t.Fatalf("schedules missed a case: %d wheel and %d far cancels, %d far firings, %d far/wheel time ties",
			wheelCancels, farCancels, farFires, farInSpan)
	}
}

// TestMergeLinksIntoOccupiedSlot: a window merge inserts cross-lane posts
// into a wheel slot that already lists the destination lane's own events
// for the same time, and they fire interleaved by key. Jitter off, posts
// from the lower lane go ahead of the local events and posts from the
// higher lane behind them; jitter on, posts keyed between two local jitter
// draws go between them, and one drawing a local event's jitter from a
// lower lane goes right before it.
func TestMergeLinksIntoOccupiedSlot(t *testing.T) {
	const due = 20 // inside lane 1's wheel span from time 0, past the first window
	for _, jitter := range []uint64{0, 99} {
		p := NewParallel(3)
		p.SetLookahead(8)
		p.SetJitter(jitter)
		rec := &recorder{}
		lane := p.Lane(1)
		var locals []refKey
		lane.At(0, func() {
			for i := 0; i < 3; i++ {
				h := lane.AtDeliver(due, rec, fmt.Sprintf("L%d", i))
				if lane.pool[h.id].far {
					t.Fatal("local event went to the far heap")
				}
				locals = append(locals, keyOf(lane, h))
			}
		})
		type keyed struct {
			name string
			k    refKey
		}
		var all []keyed
		posted := false
		p.SetArbiter(func() {
			if posted {
				return
			}
			posted = true
			var posts []keyed
			if jitter == 0 {
				posts = []keyed{{"ahead", refKey{due, 0, 0, 5}}, {"behind", refKey{due, 0, 2, 0}}}
			} else {
				js := make([]uint64, len(locals))
				for i, k := range locals {
					js[i] = k.jit
				}
				slices.Sort(js)
				posts = []keyed{
					{"ahead", refKey{due, 0, 0, 1}},
					{"between", refKey{due, js[0]/2 + js[1]/2, 2, 2}},
					{"tied", refKey{due, js[2], 0, 3}},
					{"behind", refKey{due, math.MaxUint64, 2, 4}},
				}
			}
			for _, q := range posts {
				p.PostKeyed(q.k.lane, 1, q.k.at, q.k.jit, q.k.seq, rec, q.name)
			}
			all = append(all, posts...)
		})
		if err := p.Run(1); err != nil {
			t.Fatal(err)
		}
		for i, k := range locals {
			all = append(all, keyed{fmt.Sprintf("L%d", i), k})
		}
		slices.SortFunc(all, func(a, b keyed) int {
			if a.k.less(b.k) {
				return -1
			}
			return 1
		})
		var want []string
		for _, q := range all {
			want = append(want, q.name)
		}
		if got := strings.Join(rec.got, " "); got != strings.Join(want, " ") {
			t.Errorf("jitter %d: lane 1 fired %q, want key order %q", jitter, got, strings.Join(want, " "))
		}
		if jitter == 0 && strings.Join(want, " ") != "ahead L0 L1 L2 behind" {
			t.Fatalf("jitter off: reference order %v", want)
		}
	}
}

// delayMix is the distribution of scheduling distances in the serial
// Figure 4–7 sweep (ssmp figures at its defaults, 7.24 M events): 70.6% of
// events 1 cycle ahead, 16.0% 8–15, 7.4% 4–7, 4.0% 16–63, 0.6% 2–3 and
// 1.3% 64 or more (the far heap).
func delayMix(r *rand.Rand) Time {
	switch x := r.IntN(100); {
	case x < 71:
		return 1
	case x < 87:
		return Time(8 + r.IntN(8))
	case x < 94:
		return Time(4 + r.IntN(4))
	case x < 98:
		return Time(16 + r.IntN(48))
	case x < 99:
		return Time(2 + r.IntN(2))
	default:
		return Time(64 + r.IntN(1000))
	}
}

// queueLoad keeps a fixed number of typed step events pending: each firing
// reschedules itself at the next distance of a precomputed delay table.
type queueLoad struct {
	e      *Engine
	delays []Time
	i      int
	left   int // firings until the engine stops
}

func (l *queueLoad) OnStep(arg uint64) {
	l.e.AfterStep(l.delays[l.i&(len(l.delays)-1)], l, arg)
	l.i++
	if l.left--; l.left == 0 {
		l.e.Stop()
	}
}

// BenchmarkEngineQueue measures the event queue at the shape the Figure
// 4–7 sweep gives it: 33 typed step events pending, rescheduled with that
// sweep's delay mix, jitter off and on. One op is 1,000 firings on a
// long-lived engine, so it compares with BenchmarkEngineScheduleRun's
// 1,000-event chain, the queue's other extreme (one event pending, every
// delay 1).
func BenchmarkEngineQueue(b *testing.B) {
	const pending, perOp = 33, 1000
	r := rand.New(rand.NewPCG(4, 7))
	delays := make([]Time, 4096)
	for i := range delays {
		delays[i] = delayMix(r)
	}
	for _, jitter := range []uint64{0, 11} {
		b.Run(fmt.Sprintf("jitter=%d", jitter), func(b *testing.B) {
			e := NewEngine()
			e.SetJitter(jitter)
			l := &queueLoad{e: e, delays: delays}
			for i := 0; i < pending; i++ {
				e.AtStep(Time(i%16), l, uint64(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.left = perOp
				if err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
