// Package wbuf models the per-node write buffer of the paper's architecture
// (§4.2). WRITE-GLOBAL requests are buffered here immediately so the
// processor never stalls on the network; the buffer issues them as the
// interconnect allows, retires entries as acknowledgments arrive from main
// memory, and implements FLUSH-BUFFER by notifying a waiter once every
// buffered write has been globally performed.
//
// The number of outstanding entries implicitly implements the pending-
// operation counter of Adve and Hill that the paper cites (§3 issue 2).
//
// The paper's simulations assume an infinite buffer; a finite capacity and a
// bounded issue rate are available as ablation knobs (a finite buffer stalls
// Add; a nonzero issue delay opens a window in which writes to the same word
// can coalesce).
package wbuf

import (
	"fmt"

	"ssmp/internal/mem"
	"ssmp/internal/sim"
)

// Entry is one buffered global write.
type Entry struct {
	// Seq matches the write to its acknowledgment.
	Seq uint64
	// Block and WordIdx locate the written word.
	Block   mem.Block
	WordIdx int
	// Word is the value written.
	Word mem.Word
}

// Options configures a Buffer.
type Options struct {
	// Capacity bounds the number of entries (queued + in flight);
	// 0 means unbounded (the paper's assumption).
	Capacity int
	// IssueDelay is the minimum spacing, in cycles, between issues to the
	// network; 0 issues immediately on Add.
	IssueDelay sim.Time
	// Coalesce merges a new write with a queued (not yet issued) write to
	// the same word instead of enqueueing a second entry.
	Coalesce bool
}

// Stats counts buffer activity.
type Stats struct {
	Enqueued  uint64
	Issued    uint64
	Acked     uint64
	Coalesced uint64
	Flushes   uint64
	// MaxDepth is the high-water mark of outstanding entries.
	MaxDepth int
}

// Buffer is the write buffer. It is driven entirely from the simulation
// event loop and is not safe for concurrent use.
type Buffer struct {
	eng  *sim.Engine
	opts Options
	send func(Entry)
	// queued[head:] are the entries not yet issued; both go back to 0
	// when the queue empties, so the slice's memory is kept.
	queued   []Entry
	head     int
	inflight int
	pumpSet  bool
	nextSlot sim.Time
	seq      uint64
	empty    []func()
	space    []func()
	// spare is an emptied waiter list kept for reuse: a list about to run
	// is swapped with it, so a waiter registering during the run joins
	// a fresh list.
	spare []func()
	stats Stats
}

// New builds a buffer. send is invoked (from the event loop) each time an
// entry is issued to the network; the owner must later call Ack with the
// entry's Seq when the memory acknowledgment arrives.
func New(eng *sim.Engine, opts Options, send func(Entry)) *Buffer {
	if send == nil {
		panic("wbuf: nil send")
	}
	if opts.Capacity < 0 {
		panic(fmt.Sprintf("wbuf: negative capacity %d", opts.Capacity))
	}
	b := &Buffer{eng: eng, opts: opts, send: send}
	b.Reset()
	return b
}

// Reset returns the buffer to the state New builds: empty, nothing in
// flight or waiting, sequence numbers starting over and every counter
// zero. The queue and the waiter lists keep their memory.
func (b *Buffer) Reset() {
	b.queued, b.head, b.inflight, b.pumpSet, b.nextSlot, b.seq = b.queued[:0], 0, 0, false, 0, 0
	clear(b.empty)
	clear(b.space)
	b.empty, b.space, b.stats = b.empty[:0], b.space[:0], Stats{}
}

// Len returns the number of outstanding entries (queued plus unacked).
func (b *Buffer) Len() int { return len(b.queued) - b.head + b.inflight }

// Empty reports whether every buffered write has been globally performed.
func (b *Buffer) Empty() bool { return b.Len() == 0 }

// Stats returns a snapshot of the counters.
func (b *Buffer) Stats() Stats { return b.stats }

// Full reports whether a bounded buffer has no room for another entry.
func (b *Buffer) Full() bool {
	return b.opts.Capacity > 0 && b.Len() >= b.opts.Capacity
}

// Add buffers a global write. It reports false when a bounded buffer is
// full, in which case the caller should register an OnSpace waiter and
// retry. On success the write will be issued to the network, immediately or
// as the issue rate allows.
func (b *Buffer) Add(block mem.Block, wordIdx int, w mem.Word) bool {
	if b.Full() {
		return false
	}
	if b.opts.Coalesce {
		for i := b.head; i < len(b.queued); i++ {
			if b.queued[i].Block == block && b.queued[i].WordIdx == wordIdx {
				b.queued[i].Word = w
				b.stats.Coalesced++
				return true
			}
		}
	}
	if b.head > 0 && len(b.queued) == cap(b.queued) {
		// Move the unissued entries to the front before growing.
		b.queued = b.queued[:copy(b.queued, b.queued[b.head:])]
		b.head = 0
	}
	b.seq++
	b.queued = append(b.queued, Entry{Seq: b.seq, Block: block, WordIdx: wordIdx, Word: w})
	b.stats.Enqueued++
	if d := b.Len(); d > b.stats.MaxDepth {
		b.stats.MaxDepth = d
	}
	b.pump()
	return true
}

// pump issues queued entries honoring the issue delay.
func (b *Buffer) pump() {
	if b.pumpSet || b.head == len(b.queued) {
		return
	}
	now := b.eng.Now()
	if b.opts.IssueDelay == 0 || b.nextSlot <= now {
		b.issueHead()
		return
	}
	b.pumpSet = true
	b.eng.At(b.nextSlot, func() {
		b.pumpSet = false
		if b.head < len(b.queued) {
			b.issueHead()
		}
	})
}

func (b *Buffer) issueHead() {
	e := b.queued[b.head]
	if b.head++; b.head == len(b.queued) {
		b.queued, b.head = b.queued[:0], 0
	}
	b.inflight++
	b.stats.Issued++
	b.nextSlot = b.eng.Now() + b.opts.IssueDelay
	b.send(e)
	b.pump()
}

// Ack retires an issued entry. Acking with an unknown sequence panics: it is
// a protocol bug.
func (b *Buffer) Ack(seq uint64) {
	if b.inflight == 0 {
		panic(fmt.Sprintf("wbuf: Ack(%d) with nothing in flight", seq))
	}
	b.inflight--
	b.stats.Acked++
	if b.Empty() && len(b.empty) > 0 {
		b.drain(&b.empty)
	}
	if !b.Full() && len(b.space) > 0 {
		b.drain(&b.space)
	}
}

// drain calls the waiters on *list in order. It first swaps the list with
// the spare one, so a waiter registering during the drain joins the fresh
// list, and the drained list becomes the spare.
func (b *Buffer) drain(list *[]func()) {
	waiters := *list
	*list, b.spare = b.spare[:0], nil
	for _, fn := range waiters {
		fn()
	}
	clear(waiters)
	b.spare = waiters[:0]
}

// OnEmpty invokes fn once the buffer is empty — immediately if it already
// is. This is the FLUSH-BUFFER primitive's wait condition.
func (b *Buffer) OnEmpty(fn func()) {
	b.stats.Flushes++
	if b.Empty() {
		fn()
		return
	}
	b.empty = append(b.empty, fn)
}

// OnSpace invokes fn once the buffer has room — immediately if it already
// does. Only meaningful for bounded buffers.
func (b *Buffer) OnSpace(fn func()) {
	if !b.Full() {
		fn()
		return
	}
	b.space = append(b.space, fn)
}
