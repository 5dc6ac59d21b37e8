package bccheck

// Flat machine-state representation. The old engine held a tree of small
// slices per state (lines, regs, buffers, lock queues) and paid dozens of
// allocations per clone; here every component lives in one of a few flat
// arrays whose sizes are fixed at compile time, so a clone is a handful
// of memcpys into a pooled state and encoding writes into a reusable
// scratch buffer.

import (
	"encoding/binary"
	"strconv"
)

// Processor status.
const (
	stRun   uint8 = iota // executing; runnable if pc < len(prog)
	stLock               // waiting for a lock grant
	stFlush              // waiting for the write buffer to drain
	stBar                // waiting for a barrier release
)

// Line flags (per proc, per block, data and lock kinds).
const (
	lfPresent uint8 = 1 << 0
	lfUpdate  uint8 = 1 << 1
)

// Lock-queue entry layout: proc in bits 0-2 (nproc <= 8), then flags.
const (
	lqProc  uint8 = 0x07
	lqWrite uint8 = 1 << 3
	lqHold  uint8 = 1 << 4
)

type pmeta struct {
	pc     int16
	stage  int8
	status uint8
	nregs  int16
	// bufLo/bufHi delimit the live FIFO window of this proc's buffer
	// segment. Each WRITE-GLOBAL uses a fresh slot (the segment is sized
	// to the proc's WRITE-GLOBAL count), so the head only ever advances.
	bufLo int16
	bufHi int16
}

type bufent struct {
	val uint64
	wrd int16
	blk int8
	wi  int8
}

// propm is an update propagation in flight: a snapshot of one block's
// memory image addressed to one subscriber. Values are inline (blocks
// have at most 8 words) so the props slice needs no per-entry backing.
type propm struct {
	vals [8]uint64
	dst  int8
	blk  int8
	n    int8
}

type unsubm struct{ proc, blk int8 }

// mstate is one abstract machine state. All slices have compile-time
// fixed lengths except props/unsubs, which reuse pooled capacity.
type mstate struct {
	mem   []uint64 // nwords
	regs  []uint64 // per-proc segments at compiled.regOff
	lineV []uint64 // (2*nproc)*nwords line values; data then lock per proc
	lineF []uint8  // (2*nproc)*nblocks line flags
	lineD []uint8  // (2*nproc)*nblocks dirty bitmasks (bit = word index)
	buf   []bufent // per-proc segments at compiled.bufOff
	procs []pmeta  // nproc
	lockQ []uint8  // nblocks*nproc FIFO grant-queue entries
	lockN []uint8  // per block: queue length
	subs  []uint8  // per block: subscriber bitmask (home's chain)
	bars  []uint8  // per barrier: arrived bitmask
	props []propm
	unsub []unsubm
}

// li indexes lineF/lineD: kind 0 is the data cache, kind 1 the lock cache.
func (c *compiled) li(p, kind, blk int) int { return (p*2+kind)*len(c.blocks) + blk }

// lv is the lineV offset of the first word of a line.
func (c *compiled) lv(p, kind, blk int) int { return (p*2+kind)*c.nwords + c.blocks[blk].base }

func (c *compiled) newState() *mstate {
	np, nb := c.nproc, len(c.blocks)
	return &mstate{
		mem:   make([]uint64, c.nwords),
		regs:  make([]uint64, c.regCap),
		lineV: make([]uint64, 2*np*c.nwords),
		lineF: make([]uint8, 2*np*nb),
		lineD: make([]uint8, 2*np*nb),
		buf:   make([]bufent, c.bufCap),
		procs: make([]pmeta, np),
		lockQ: make([]uint8, nb*np),
		lockN: make([]uint8, nb),
		subs:  make([]uint8, nb),
		bars:  make([]uint8, c.nbar),
	}
}

// worker is an exploration context: a state free list, the encode
// scratch buffers, and the outcomes recorded so far.
type worker struct {
	e         *engine
	free      []*mstate
	scratch   []byte
	encBest   []byte // canonical encoding of the last canonicalize()
	sortIdx   []int32
	keybuf    []byte
	permProps []propm  // encodePerm scratch
	permUnsub []unsubm // encodePerm scratch
	outcomes  map[string]*Outcome
}

func newWorker(e *engine) *worker {
	return &worker{e: e, outcomes: make(map[string]*Outcome)}
}

func (w *worker) get() *mstate {
	if n := len(w.free); n > 0 {
		s := w.free[n-1]
		w.free = w.free[:n-1]
		return s
	}
	return w.e.c.newState()
}

func (w *worker) put(s *mstate) { w.free = append(w.free, s) }

// clone copies s into a pooled state. Segments beyond their live windows
// carry stale bytes; they are never read and never encoded.
func (w *worker) clone(s *mstate) *mstate {
	n := w.get()
	copy(n.mem, s.mem)
	copy(n.regs, s.regs)
	copy(n.lineV, s.lineV)
	copy(n.lineF, s.lineF)
	copy(n.lineD, s.lineD)
	copy(n.buf, s.buf)
	copy(n.procs, s.procs)
	copy(n.lockQ, s.lockQ)
	copy(n.lockN, s.lockN)
	copy(n.subs, s.subs)
	copy(n.bars, s.bars)
	n.props = append(n.props[:0], s.props...)
	n.unsub = append(n.unsub[:0], s.unsub...)
	return n
}

// initial resets a pooled state to the program's start configuration.
func (c *compiled) initial(w *worker) *mstate {
	s := w.get()
	copy(s.mem, c.init)
	for i := range s.procs {
		s.procs[i] = pmeta{}
	}
	for i := range s.lineF {
		s.lineF[i] = 0
		s.lineD[i] = 0
	}
	for i := range s.lockN {
		s.lockN[i] = 0
		s.subs[i] = 0
	}
	for i := range s.bars {
		s.bars[i] = 0
	}
	s.props = s.props[:0]
	s.unsub = s.unsub[:0]
	return s
}

// encode serializes a state into the worker's scratch buffer. In-flight
// message multisets are emitted in sorted order so states differing only
// in bookkeeping order coincide, exactly like the old string-key scheme
// — but with zero allocations on the steady path.
func (c *compiled) encode(w *worker, s *mstate) []byte {
	b := w.scratch[:0]
	for _, v := range s.mem {
		b = binary.AppendUvarint(b, v)
	}
	for p := range s.procs {
		ps := &s.procs[p]
		b = append(b, uint8(ps.pc), uint8(ps.stage), ps.status, uint8(ps.nregs))
		off := int(c.regOff[p])
		for _, v := range s.regs[off : off+int(ps.nregs)] {
			b = binary.AppendUvarint(b, v)
		}
		b = append(b, uint8(ps.bufHi-ps.bufLo))
		boff := int(c.bufOff[p])
		for _, e := range s.buf[boff+int(ps.bufLo) : boff+int(ps.bufHi)] {
			b = append(b, uint8(e.wrd))
			b = binary.AppendUvarint(b, e.val)
		}
	}
	for p := range s.procs {
		for kind := 0; kind < 2; kind++ {
			for blk := range c.blocks {
				f := s.lineF[c.li(p, kind, blk)]
				b = append(b, f)
				if f&lfPresent == 0 {
					continue
				}
				b = append(b, s.lineD[c.li(p, kind, blk)])
				v0 := c.lv(p, kind, blk)
				for _, v := range s.lineV[v0 : v0+len(c.blocks[blk].words)] {
					b = binary.AppendUvarint(b, v)
				}
			}
		}
	}
	for blk := range c.blocks {
		qn := int(s.lockN[blk])
		b = append(b, uint8(qn))
		b = append(b, s.lockQ[blk*c.nproc:blk*c.nproc+qn]...)
	}
	b = append(b, s.subs...)
	b = append(b, s.bars...)

	idx := w.sortIdx[:0]
	for i := range s.props {
		idx = append(idx, int32(i))
	}
	// Insertion sort: the multiset is tiny and usually nearly sorted.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && propLess(&s.props[idx[j]], &s.props[idx[j-1]]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	b = append(b, uint8(len(idx)))
	for _, i := range idx {
		pr := &s.props[i]
		b = append(b, uint8(pr.dst), uint8(pr.blk))
		for _, v := range pr.vals[:pr.n] {
			b = binary.AppendUvarint(b, v)
		}
	}
	w.sortIdx = idx[:0]

	b = append(b, uint8(len(s.unsub)))
	idx2 := w.sortIdx[:0]
	for i := range s.unsub {
		idx2 = append(idx2, int32(i))
	}
	for i := 1; i < len(idx2); i++ {
		for j := i; j > 0 && unsubLess(s.unsub[idx2[j]], s.unsub[idx2[j-1]]); j-- {
			idx2[j], idx2[j-1] = idx2[j-1], idx2[j]
		}
	}
	for _, i := range idx2 {
		b = append(b, uint8(s.unsub[i].proc), uint8(s.unsub[i].blk))
	}
	w.sortIdx = idx2[:0]

	w.scratch = b
	return b
}

func propLess(a, b *propm) bool {
	if a.dst != b.dst {
		return a.dst < b.dst
	}
	if a.blk != b.blk {
		return a.blk < b.blk
	}
	for i := 0; i < int(a.n) && i < int(b.n); i++ {
		if a.vals[i] != b.vals[i] {
			return a.vals[i] < b.vals[i]
		}
	}
	return false
}

func unsubLess(a, b unsubm) bool {
	if a.proc != b.proc {
		return a.proc < b.proc
	}
	return a.blk < b.blk
}

// hash encodes and folds a state to its interning key.
func (w *worker) hash(s *mstate) hkey {
	return hash128(w.e.c.encode(w, s))
}

// quiescent reports whether the machine has finished cleanly: every
// processor past its last instruction, buffers drained, no messages in
// flight.
func (c *compiled) quiescent(s *mstate) bool {
	for p := range s.procs {
		ps := &s.procs[p]
		if ps.status != stRun || int(ps.pc) < len(c.prog[p]) || ps.bufLo != ps.bufHi {
			return false
		}
	}
	return len(s.props) == 0 && len(s.unsub) == 0
}

func (c *compiled) outcome(s *mstate) Outcome {
	o := Outcome{Regs: make([][]uint64, c.nproc)}
	for p := range s.procs {
		off := int(c.regOff[p])
		o.Regs[p] = append([]uint64(nil), s.regs[off:off+int(s.procs[p].nregs)]...)
	}
	for _, wrd := range c.observe {
		o.Mem = append(o.Mem, s.mem[wrd])
	}
	return o
}

// appendOutcomeKey renders the outcome key of a terminal state directly
// from the flat representation, byte-identical to Outcome.Key, without
// materializing the Outcome.
func (c *compiled) appendOutcomeKey(dst []byte, s *mstate) []byte {
	for p := range s.procs {
		off := int(c.regOff[p])
		for i, v := range s.regs[off : off+int(s.procs[p].nregs)] {
			if len(dst) > 0 {
				dst = append(dst, ' ')
			}
			dst = strconv.AppendInt(dst, int64(p), 10)
			dst = append(dst, ':', 'r')
			dst = strconv.AppendInt(dst, int64(i), 10)
			dst = append(dst, '=')
			dst = strconv.AppendUint(dst, v, 10)
		}
	}
	for i, wrd := range c.observe {
		if len(dst) > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, 'm')
		dst = strconv.AppendInt(dst, int64(i), 10)
		dst = append(dst, '=')
		dst = strconv.AppendUint(dst, s.mem[wrd], 10)
	}
	return dst
}

// record notes a terminal state's outcome. In witness mode the first
// path reaching each outcome is rendered as its witness.
func (w *worker) record(s *mstate, path []sdesc) {
	c := w.e.c
	w.keybuf = c.appendOutcomeKey(w.keybuf[:0], s)
	if _, ok := w.outcomes[string(w.keybuf)]; ok {
		return
	}
	o := c.outcome(s)
	if c.wit {
		o.Witness = make([]string, len(path))
		for i := range path {
			o.Witness[i] = c.render(&path[i])
		}
	}
	w.outcomes[string(w.keybuf)] = &o
}
