package wbuf

import (
	"testing"
	"testing/quick"

	"ssmp/internal/mem"
	"ssmp/internal/sim"
)

func TestImmediateIssue(t *testing.T) {
	e := sim.NewEngine()
	var sent []Entry
	b := New(e, Options{}, func(en Entry) { sent = append(sent, en) })
	if !b.Add(3, 1, 42) {
		t.Fatal("Add on unbounded buffer returned false")
	}
	if len(sent) != 1 || sent[0].Block != 3 || sent[0].WordIdx != 1 || sent[0].Word != 42 {
		t.Fatalf("sent = %+v", sent)
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (in flight)", b.Len())
	}
	b.Ack(sent[0].Seq)
	if !b.Empty() {
		t.Fatal("buffer not empty after ack")
	}
}

func TestFlushWaitsForAllAcks(t *testing.T) {
	e := sim.NewEngine()
	var sent []Entry
	b := New(e, Options{}, func(en Entry) { sent = append(sent, en) })
	b.Add(1, 0, 1)
	b.Add(2, 0, 2)
	b.Add(3, 0, 3)
	flushed := false
	b.OnEmpty(func() { flushed = true })
	if flushed {
		t.Fatal("flush completed with writes outstanding")
	}
	b.Ack(sent[0].Seq)
	b.Ack(sent[1].Seq)
	if flushed {
		t.Fatal("flush completed with one write outstanding")
	}
	b.Ack(sent[2].Seq)
	if !flushed {
		t.Fatal("flush did not complete after final ack")
	}
}

func TestFlushOnEmptyBufferIsImmediate(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, Options{}, func(Entry) {})
	done := false
	b.OnEmpty(func() { done = true })
	if !done {
		t.Fatal("OnEmpty on empty buffer did not fire immediately")
	}
	if b.Stats().Flushes != 1 {
		t.Fatalf("Flushes = %d, want 1", b.Stats().Flushes)
	}
}

func TestBoundedBufferStalls(t *testing.T) {
	e := sim.NewEngine()
	var sent []Entry
	b := New(e, Options{Capacity: 2}, func(en Entry) { sent = append(sent, en) })
	if !b.Add(1, 0, 1) || !b.Add(2, 0, 2) {
		t.Fatal("adds under capacity failed")
	}
	if b.Add(3, 0, 3) {
		t.Fatal("Add on full buffer succeeded")
	}
	var resumed bool
	b.OnSpace(func() { resumed = true })
	if resumed {
		t.Fatal("OnSpace fired while full")
	}
	b.Ack(sent[0].Seq)
	if !resumed {
		t.Fatal("OnSpace did not fire after ack")
	}
	if !b.Add(3, 0, 3) {
		t.Fatal("Add after space freed failed")
	}
}

func TestOnSpaceImmediateWhenNotFull(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, Options{Capacity: 2}, func(Entry) {})
	fired := false
	b.OnSpace(func() { fired = true })
	if !fired {
		t.Fatal("OnSpace on non-full buffer did not fire immediately")
	}
}

func TestIssueDelayPacesIssues(t *testing.T) {
	e := sim.NewEngine()
	var times []sim.Time
	b := New(e, Options{IssueDelay: 10}, func(Entry) { times = append(times, e.Now()) })
	b.Add(1, 0, 1)
	b.Add(2, 0, 2)
	b.Add(3, 0, 3)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []sim.Time{0, 10, 20}
	if len(times) != 3 {
		t.Fatalf("issued %d, want 3", len(times))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("issue times %v, want %v", times, want)
		}
	}
}

func TestCoalesceMergesQueuedWrites(t *testing.T) {
	e := sim.NewEngine()
	var sent []Entry
	b := New(e, Options{IssueDelay: 10, Coalesce: true}, func(en Entry) { sent = append(sent, en) })
	b.Add(1, 0, 100) // issues immediately
	b.Add(2, 1, 200) // queued (issue slot at t=10)
	b.Add(2, 1, 201) // coalesces with queued entry
	b.Add(2, 2, 300) // different word: no coalesce
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 3 {
		t.Fatalf("sent %d entries, want 3", len(sent))
	}
	if sent[1].Word != 201 {
		t.Fatalf("coalesced value = %d, want 201", sent[1].Word)
	}
	if b.Stats().Coalesced != 1 {
		t.Fatalf("Coalesced = %d, want 1", b.Stats().Coalesced)
	}
}

func TestCoalesceDoesNotMergeInflight(t *testing.T) {
	e := sim.NewEngine()
	var sent []Entry
	b := New(e, Options{Coalesce: true}, func(en Entry) { sent = append(sent, en) })
	b.Add(1, 0, 100) // issued immediately: in flight, not coalescible
	b.Add(1, 0, 101)
	if len(sent) != 2 {
		t.Fatalf("sent %d entries, want 2 (in-flight writes must not coalesce)", len(sent))
	}
}

func TestAckUnknownPanics(t *testing.T) {
	e := sim.NewEngine()
	b := New(e, Options{}, func(Entry) {})
	defer func() {
		if recover() == nil {
			t.Error("Ack with nothing in flight did not panic")
		}
	}()
	b.Ack(7)
}

func TestNilSendPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil send did not panic")
		}
	}()
	New(sim.NewEngine(), Options{}, nil)
}

func TestMaxDepth(t *testing.T) {
	e := sim.NewEngine()
	var sent []Entry
	b := New(e, Options{}, func(en Entry) { sent = append(sent, en) })
	for i := 0; i < 5; i++ {
		b.Add(mem.Block(i), 0, 0)
	}
	for _, en := range sent {
		b.Ack(en.Seq)
	}
	if b.Stats().MaxDepth != 5 {
		t.Fatalf("MaxDepth = %d, want 5", b.Stats().MaxDepth)
	}
}

// TestWaiterReregistersDuringDrain: a waiter that buffers another write
// and waits again from inside a drain joins a fresh list, so it runs on
// the next drain, not the one in progress; each drain runs its waiters in
// registration order. Both rounds run twice, the second on the lists the
// first left as spares.
func TestWaiterReregistersDuringDrain(t *testing.T) {
	e := sim.NewEngine()
	var sent []Entry
	var order string
	b := New(e, Options{Capacity: 1}, func(en Entry) { sent = append(sent, en) })
	for round := 0; round < 2; round++ {
		order, sent = "", sent[:0]
		b.Add(1, 0, 1)
		b.OnEmpty(func() {
			order += "a"
			b.Add(2, 0, 2)
			b.OnEmpty(func() { order += "c" })
		})
		b.OnEmpty(func() { order += "b" })
		b.Ack(sent[0].Seq)
		if order != "ab" {
			t.Fatalf("round %d: first drain ran %q, want \"ab\"", round, order)
		}
		b.Ack(sent[1].Seq)
		if order != "abc" {
			t.Fatalf("round %d: second drain ran %q, want \"abc\"", round, order)
		}

		// The same through the space list of the full one-entry buffer.
		order, sent = "", sent[:0]
		b.Add(3, 0, 3)
		b.OnSpace(func() {
			order += "a"
			if !b.Add(4, 0, 4) {
				t.Fatal("Add after space freed failed")
			}
			b.OnSpace(func() { order += "c" })
		})
		b.OnSpace(func() { order += "b" })
		b.Ack(sent[0].Seq)
		if order != "ab" {
			t.Fatalf("round %d: first space drain ran %q, want \"ab\"", round, order)
		}
		b.Ack(sent[1].Seq)
		if order != "abc" || !b.Empty() {
			t.Fatalf("round %d: second space drain ran %q (empty %v), want \"abc\"", round, order, b.Empty())
		}
	}
}

// TestResetKeepsMemory: once a buffer has held writes and a flush waiter,
// a Reset keeps the queue's and the waiter lists' memory, so the same
// work after it allocates nothing.
func TestResetKeepsMemory(t *testing.T) {
	e := sim.NewEngine()
	sent := make([]Entry, 0, 8)
	b := New(e, Options{}, func(en Entry) { sent = append(sent, en) })
	flushed := func() {}
	run := func() {
		b.Reset()
		sent = sent[:0]
		for i := 0; i < 4; i++ {
			b.Add(mem.Block(i), 0, mem.Word(i))
		}
		b.OnEmpty(flushed)
		for _, en := range sent {
			b.Ack(en.Seq)
		}
	}
	if got := testing.AllocsPerRun(20, run); got != 0 {
		t.Fatalf("Reset and refill made %v allocations, want 0", got)
	}
}

// TestQueueIssuesInOrderInBoundedMemory: writes arrive as fast as the issue
// rate lets them leave, so the queue never empties. Every write is still
// issued once, in order, and the queue moves its unissued entries to the
// front instead of growing with every write it has ever held.
func TestQueueIssuesInOrderInBoundedMemory(t *testing.T) {
	e := sim.NewEngine()
	var sent []Entry
	b := New(e, Options{IssueDelay: 3}, func(en Entry) { sent = append(sent, en) })
	const n = 300
	for i := 0; i < n; i++ {
		at := sim.Time(0)
		if i >= 4 {
			at = sim.Time(3 * (i - 3))
		}
		e.At(at, func() { b.Add(mem.Block(i), 0, mem.Word(i)) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sent) != n {
		t.Fatalf("issued %d writes, want %d", len(sent), n)
	}
	for i, en := range sent {
		if en.Seq != uint64(i+1) || en.Word != mem.Word(i) {
			t.Fatalf("issue %d is %+v, want write %d", i, en, i)
		}
	}
	if c := cap(b.queued); c > 16 {
		t.Fatalf("queue capacity %d for a depth of at most 4", c)
	}
}

// Property: every added write is eventually issued exactly once (without
// coalescing), and after acking all issues the buffer is empty and all
// flush waiters have fired.
func TestQuickConservation(t *testing.T) {
	f := func(writes []uint16, delay uint8) bool {
		e := sim.NewEngine()
		var sent []Entry
		b := New(e, Options{IssueDelay: sim.Time(delay % 5)}, func(en Entry) { sent = append(sent, en) })
		for _, w := range writes {
			if !b.Add(mem.Block(w%7), int(w%4), mem.Word(w)) {
				return false
			}
		}
		flushed := false
		b.OnEmpty(func() { flushed = true })
		if err := e.Run(); err != nil {
			return false
		}
		if len(sent) != len(writes) {
			return false
		}
		for _, en := range sent {
			b.Ack(en.Seq)
		}
		return b.Empty() && flushed
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: with a bounded buffer, Len never exceeds capacity.
func TestQuickCapacityRespected(t *testing.T) {
	f := func(ops []uint8) bool {
		e := sim.NewEngine()
		var sent []Entry
		b := New(e, Options{Capacity: 3}, func(en Entry) { sent = append(sent, en) })
		for _, op := range ops {
			if op%2 == 0 {
				b.Add(mem.Block(op), 0, 0)
			} else if len(sent) > 0 && b.Len() > 0 {
				b.Ack(sent[0].Seq)
				sent = sent[1:]
			}
			if b.Len() > 3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
