package bccheck

// The abstract BC machine: program compilation and the transition
// semantics. States are the flat pooled representation of state.go;
// successors are generated through an emit callback carrying a small
// structured step descriptor (sdesc) that is rendered to text only when
// a witness or deadlock report actually needs it.

import (
	"fmt"
	"math/bits"
	"sort"
)

const defaultMaxStates = 2_000_000

// compiled is a validated program with its location layout resolved: blocks
// are renumbered densely, each block's referenced words become a dense
// word-index list, and every data word gets a global index into the flat
// memory image.
type compiled struct {
	prog    [][]cinstr
	nproc   int
	blocks  []blockInfo
	nwords  int
	observe []int // global word indices
	init    []uint64
	nbar    int
	barName []int // compiled barrier index -> user barrier id
	max     int
	locName func(Loc) string
	tune    Tuning
	wit     bool
	mut     Mutation

	// Symmetry reduction (sym.go): the non-identity automorphisms of the
	// program system, plus user-id lookup tables for mapping report
	// labels back to original numbering. Empty when symmetry is off or
	// the group is trivial.
	syms    []symPerm
	blkByID map[int]int
	barByID map[int]int

	// Flat-state layout: per-proc segment offsets into mstate.regs/buf.
	regOff []int32
	regCap int
	bufOff []int32
	bufCap int

	// Partial-order-reduction lookahead masks, per proc, indexed by pc in
	// [0, len(prog[p])]: bit b is set iff some instruction at index >= pc
	// touches block b in the stated way. Blocks are capped at 16, so a
	// uint16 holds a block set. See por.go for how they are used.
	futMemNoWG   [][]uint16 // memory-observing ops other than WRITE-GLOBAL
	futWG        [][]uint16 // WRITE-GLOBAL
	futPlainRead [][]uint16 // plain READ
	futLineRead  [][]uint16 // ops that read the data cache line (READ, READ-UPDATE)
}

type blockInfo struct {
	id    int   // user block id
	words []int // user word ids, sorted
	base  int   // global index of words[0]
}

type cinstr struct {
	op  Op
	blk int // compiled block index; for OpBarrier, compiled barrier index
	wi  int // word index within block
	wrd int // global word index
	val uint64
	loc Loc // original, for labels
}

// compile lays out locations, lowers instructions, and validates.
func compile(prog Program, opts Options) (*compiled, error) {
	if len(prog) < 1 || len(prog) > 8 {
		return nil, fmt.Errorf("bccheck: need 1-8 processors, got %d", len(prog))
	}
	words := map[int]map[int]bool{} // block -> word set
	bars := map[int]bool{}
	note := func(l Loc) {
		if words[l.Block] == nil {
			words[l.Block] = map[int]bool{}
		}
		words[l.Block][l.Word] = true
	}
	for p, instrs := range prog {
		if len(instrs) > 64 {
			return nil, fmt.Errorf("bccheck: P%d has %d instructions (max 64)", p, len(instrs))
		}
		for _, in := range instrs {
			switch in.Op {
			case OpFlush:
			case OpBarrier:
				bars[in.Loc.Block] = true
			case OpRead, OpWrite, OpReadGlobal, OpWriteGlobal,
				OpReadUpdate, OpResetUpdate, OpReadLock, OpWriteLock, OpUnlock:
				if in.Loc.Block < 0 || in.Loc.Word < 0 {
					return nil, fmt.Errorf("bccheck: P%d: negative location %+v", p, in.Loc)
				}
				note(in.Loc)
			default:
				return nil, fmt.Errorf("bccheck: P%d: unknown op %d", p, in.Op)
			}
		}
	}
	for _, l := range opts.Observe {
		note(l)
	}
	for l := range opts.Init {
		note(l)
	}
	if len(words) > 16 {
		return nil, fmt.Errorf("bccheck: %d blocks referenced (max 16)", len(words))
	}

	if opts.Mutate >= mutCount {
		return nil, fmt.Errorf("bccheck: unknown mutation %d", opts.Mutate)
	}
	c := &compiled{
		nproc:   len(prog),
		max:     opts.MaxStates,
		locName: opts.LocName,
		tune:    opts.Tuning,
		wit:     opts.Witnesses,
		mut:     opts.Mutate,
	}
	if c.mut != MutNone {
		// Mutated semantics invalidate the POR commutation argument and
		// the automorphism group; explore the full graph.
		c.tune.DisablePOR = true
		c.tune.DisableSymmetry = true
	}
	if c.max <= 0 {
		c.max = defaultMaxStates
	}
	if c.locName == nil {
		c.locName = func(l Loc) string { return fmt.Sprintf("b%dw%d", l.Block, l.Word) }
	}
	blockIdx := map[int]int{}
	var blockIDs []int
	for id := range words {
		blockIDs = append(blockIDs, id)
	}
	sort.Ints(blockIDs)
	for _, id := range blockIDs {
		var ws []int
		for w := range words[id] {
			ws = append(ws, w)
		}
		sort.Ints(ws)
		if len(ws) > 8 {
			return nil, fmt.Errorf("bccheck: block %d has %d words (max 8)", id, len(ws))
		}
		blockIdx[id] = len(c.blocks)
		c.blocks = append(c.blocks, blockInfo{id: id, words: ws, base: c.nwords})
		c.nwords += len(ws)
	}
	wordIdx := func(l Loc) (blk, wi, wrd int) {
		blk = blockIdx[l.Block]
		b := &c.blocks[blk]
		wi = sort.SearchInts(b.words, l.Word)
		return blk, wi, b.base + wi
	}

	barIdx := map[int]int{}
	var barIDs []int
	for id := range bars {
		barIDs = append(barIDs, id)
	}
	sort.Ints(barIDs)
	for _, id := range barIDs {
		barIdx[id] = len(c.barName)
		c.barName = append(c.barName, id)
	}
	c.nbar = len(c.barName)

	c.init = make([]uint64, c.nwords)
	for l, v := range opts.Init {
		_, _, wrd := wordIdx(l)
		c.init[wrd] = v
	}
	for _, l := range opts.Observe {
		_, _, wrd := wordIdx(l)
		c.observe = append(c.observe, wrd)
	}

	// Lower and validate per processor: lock balance, no write under a read
	// lock, each barrier joined exactly once.
	for p, instrs := range prog {
		held := map[int]Op{} // compiled block -> lock op
		seen := map[int]int{}
		var low []cinstr
		for i, in := range instrs {
			ci := cinstr{op: in.Op, val: in.Val, loc: in.Loc}
			switch in.Op {
			case OpFlush:
			case OpBarrier:
				ci.blk = barIdx[in.Loc.Block]
				seen[ci.blk]++
			default:
				ci.blk, ci.wi, ci.wrd = wordIdx(in.Loc)
			}
			switch in.Op {
			case OpReadLock, OpWriteLock:
				if len(held) > 0 {
					return nil, fmt.Errorf("bccheck: P%d[%d]: nested lock acquisition (can deadlock)", p, i)
				}
				held[ci.blk] = in.Op
			case OpBarrier:
				if len(held) > 0 {
					return nil, fmt.Errorf("bccheck: P%d[%d]: barrier while holding a lock (can deadlock)", p, i)
				}
			case OpUnlock:
				if _, ok := held[ci.blk]; !ok {
					return nil, fmt.Errorf("bccheck: P%d[%d]: UNLOCK of block %d not held", p, i, in.Loc.Block)
				}
				delete(held, ci.blk)
			case OpWrite, OpWriteGlobal:
				if held[ci.blk] == OpReadLock {
					return nil, fmt.Errorf("bccheck: P%d[%d]: %v to block %d held under READ-LOCK", p, i, in.Op, in.Loc.Block)
				}
			}
			low = append(low, ci)
		}
		if len(held) > 0 {
			return nil, fmt.Errorf("bccheck: P%d ends holding %d lock(s)", p, len(held))
		}
		for b := 0; b < c.nbar; b++ {
			if seen[b] != 1 {
				return nil, fmt.Errorf("bccheck: P%d joins barrier %d %d times (want exactly 1)", p, c.barName[b], seen[b])
			}
		}
		c.prog = append(c.prog, low)
	}

	c.layout()
	c.computeMasks()
	// Witness labels are rendered in the numbering of the explored
	// states, so witness mode keeps the identity numbering by skipping
	// symmetry entirely.
	if !c.wit && !c.tune.DisableSymmetry {
		c.computeSyms()
	}
	return c, nil
}

// layout sizes the flat register and buffer arenas: a proc reads at most
// once per reading instruction and buffers at most once per WRITE-GLOBAL,
// so fixed per-proc segments hold any execution.
func (c *compiled) layout() {
	c.regOff = make([]int32, c.nproc)
	c.bufOff = make([]int32, c.nproc)
	for p, instrs := range c.prog {
		c.regOff[p] = int32(c.regCap)
		c.bufOff[p] = int32(c.bufCap)
		for _, in := range instrs {
			if in.op.Reads() {
				c.regCap++
			}
			if in.op == OpWriteGlobal {
				c.bufCap++
			}
		}
	}
}

// installLine fills a cache line from memory (whole block, clean; for the
// data cache this is a read-miss fill, for the lock cache a grant).
func (c *compiled) installLine(s *mstate, p, kind, blk int) {
	b := &c.blocks[blk]
	i := c.li(p, kind, blk)
	s.lineF[i] = lfPresent
	s.lineD[i] = 0
	v0 := c.lv(p, kind, blk)
	copy(s.lineV[v0:v0+len(b.words)], s.mem[b.base:b.base+len(b.words)])
}

// refreshClean merges memory into the clean words of a present data line
// (the per-word merge of installs and update propagations).
func (c *compiled) refreshClean(s *mstate, p, blk int) {
	b := &c.blocks[blk]
	d := s.lineD[c.li(p, 0, blk)]
	v0 := c.lv(p, 0, blk)
	for i := range b.words {
		if d&(1<<uint(i)) == 0 {
			s.lineV[v0+i] = s.mem[b.base+i]
		}
	}
}

// grant installs the lock line from current memory and resumes the waiter.
func (c *compiled) grant(s *mstate, p, blk int) {
	c.installLine(s, p, 1, blk)
	if c.mut == MutNPSynch {
		// Strengthened NP-Synch: acquisition acts as a synch point,
		// refreshing every present data line's clean words from memory.
		for b := range c.blocks {
			if s.lineF[c.li(p, 0, b)]&lfPresent != 0 {
				c.refreshClean(s, p, b)
			}
		}
	}
	ps := &s.procs[p]
	if ps.status == stLock {
		ps.status = stRun
		ps.pc++
	}
}

// release merges dirty lock-line words to memory, leaves the queue, and
// grants the next wave (a writer alone, or the run of readers at the head).
func (c *compiled) release(s *mstate, p, blk int) {
	b := &c.blocks[blk]
	i := c.li(p, 1, blk)
	d := s.lineD[i]
	v0 := c.lv(p, 1, blk)
	if c.mut != MutLockData {
		for wi := range b.words {
			if d&(1<<uint(wi)) != 0 {
				s.mem[b.base+wi] = s.lineV[v0+wi]
			}
		}
	}
	s.lineF[i] = 0
	s.lineD[i] = 0
	q0 := blk * c.nproc
	qn := int(s.lockN[blk])
	for j := 0; j < qn; j++ {
		if int(s.lockQ[q0+j]&lqProc) == p {
			copy(s.lockQ[q0+j:q0+qn-1], s.lockQ[q0+j+1:q0+qn])
			qn--
			break
		}
	}
	s.lockN[blk] = uint8(qn)
	if qn == 0 || s.lockQ[q0]&lqHold != 0 {
		return
	}
	headWrite := s.lockQ[q0]&lqWrite != 0
	for j := 0; j < qn; j++ {
		e := s.lockQ[q0+j]
		if e&lqHold != 0 || (j > 0 && (headWrite || e&lqWrite != 0)) {
			break
		}
		s.lockQ[q0+j] = e | lqHold
		c.grant(s, int(e&lqProc), blk)
		if headWrite {
			break
		}
	}
}

// unblockFlush resumes a processor whose buffer just drained, advancing it
// past the flush (or into the release/arrive stage of UNLOCK/BARRIER).
func (c *compiled) unblockFlush(s *mstate, p int) {
	ps := &s.procs[p]
	if ps.status != stFlush || ps.bufLo != ps.bufHi {
		return
	}
	ps.status = stRun
	switch c.prog[p][ps.pc].op {
	case OpFlush:
		ps.pc++
	case OpUnlock, OpBarrier:
		ps.stage = 1
	}
}

func (c *compiled) pushReg(s *mstate, p int, v uint64) {
	ps := &s.procs[p]
	s.regs[int(c.regOff[p])+int(ps.nregs)] = v
	ps.nregs++
}

// Step descriptors: enough structure to render the old engine's witness
// labels on demand.
const (
	sdProc uint8 = iota
	sdRetire
	sdProp
	sdUnsub
)

const (
	vCache uint8 = iota
	vLockLine
	vMissFill
	vPrivate
	vBuffered
	vSubHit
	vSubscribe
	vSubAfterReset
	vNoop
	vReset
	vEmpty
	vStall
	vGranted
	vQueued
	vFlushFirst
	vBufEmpty
	vReleased
	vLastArrival
	vWaiting
	vApplied
	vDropped
)

type sdesc struct {
	kind    uint8
	variant uint8
	proc    int8
	op      Op
	loc     Loc
	val     uint64
	aux     int32 // stall depth, or prop/unsub user block id
}

// render turns a descriptor into the human-readable step label.
func (c *compiled) render(d *sdesc) string {
	switch d.kind {
	case sdRetire:
		return fmt.Sprintf("P%d's WRITE-GLOBAL %s = %d performs at memory", d.proc, c.locName(d.loc), d.val)
	case sdProp:
		how := "applied"
		if d.variant == vDropped {
			how = "dropped, no copy"
		}
		return fmt.Sprintf("update for block %d reaches P%d (%s)", d.aux, d.proc, how)
	case sdUnsub:
		return fmt.Sprintf("P%d's RESET-UPDATE for block %d reaches home", d.proc, d.aux)
	}
	name := c.locName(d.loc)
	switch d.op {
	case OpRead:
		src := map[uint8]string{vCache: "cache", vLockLine: "lock line", vMissFill: "miss fill"}[d.variant]
		return fmt.Sprintf("P%d: READ %s = %d (%s)", d.proc, name, d.val, src)
	case OpWrite:
		tgt := "private"
		if d.variant == vLockLine {
			tgt = "lock line"
		}
		return fmt.Sprintf("P%d: WRITE %s = %d (%s)", d.proc, name, d.val, tgt)
	case OpReadGlobal:
		return fmt.Sprintf("P%d: READ-GLOBAL %s = %d", d.proc, name, d.val)
	case OpWriteGlobal:
		how := "buffered"
		if d.variant == vLockLine {
			how = "lock line"
		}
		return fmt.Sprintf("P%d: WRITE-GLOBAL %s = %d (%s)", d.proc, name, d.val, how)
	case OpReadUpdate:
		how := map[uint8]string{vSubHit: "subscribed hit", vSubscribe: "subscribe", vSubAfterReset: "subscribe after pending reset"}[d.variant]
		return fmt.Sprintf("P%d: READ-UPDATE %s = %d (%s)", d.proc, name, d.val, how)
	case OpResetUpdate:
		if d.variant == vNoop {
			return fmt.Sprintf("P%d: RESET-UPDATE %s (no-op)", d.proc, name)
		}
		return fmt.Sprintf("P%d: RESET-UPDATE %s", d.proc, name)
	case OpFlush:
		if d.variant == vEmpty {
			return fmt.Sprintf("P%d: FLUSH-BUFFER (empty)", d.proc)
		}
		return fmt.Sprintf("P%d: FLUSH-BUFFER (stall, %d pending)", d.proc, d.aux)
	case OpReadLock, OpWriteLock:
		how := "granted"
		if d.variant == vQueued {
			how = "queued"
		}
		return fmt.Sprintf("P%d: %v %s (%s)", d.proc, d.op, name, how)
	case OpUnlock:
		how := map[uint8]string{vFlushFirst: "flushing first", vBufEmpty: "buffer empty", vReleased: "released"}[d.variant]
		return fmt.Sprintf("P%d: UNLOCK %s (%s)", d.proc, name, how)
	case OpBarrier:
		how := map[uint8]string{vFlushFirst: "flushing first", vBufEmpty: "buffer empty", vLastArrival: "last arrival, release all", vWaiting: "arrived, waiting"}[d.variant]
		return fmt.Sprintf("P%d: BARRIER %d (%s)", d.proc, d.loc.Block, how)
	}
	return fmt.Sprintf("P%d: %v", d.proc, d.op)
}

type emitFn func(d sdesc, n *mstate)

// subscribeRU performs READ-UPDATE's subscribe action on a clone: join the
// home chain, fold memory into the line's clean words (or fill it), mark
// it update-mode, and read.
func (c *compiled) subscribeRU(n *mstate, p int, in *cinstr) uint64 {
	n.subs[in.blk] |= 1 << uint(p)
	i := c.li(p, 0, in.blk)
	if n.lineF[i]&lfPresent != 0 {
		if c.mut != MutFresh {
			c.refreshClean(n, p, in.blk)
		}
	} else {
		c.installLine(n, p, 0, in.blk)
	}
	n.lineF[i] |= lfUpdate
	v := n.lineV[c.lv(p, 0, in.blk)+in.wi]
	c.pushReg(n, p, v)
	n.procs[p].pc++
	return v
}

// procStep emits the successor state(s) of processor p taking its next
// architectural step.
func (c *compiled) procStep(w *worker, s *mstate, p int, emit emitFn) {
	ps := &s.procs[p]
	in := &c.prog[p][ps.pc]
	p8 := int8(p)
	switch in.op {
	case OpRead:
		n := w.clone(s)
		var v uint64
		variant := vCache
		if n.lineF[c.li(p, 1, in.blk)]&lfPresent != 0 {
			v = n.lineV[c.lv(p, 1, in.blk)+in.wi]
			variant = vLockLine
		} else {
			if n.lineF[c.li(p, 0, in.blk)]&lfPresent == 0 {
				c.installLine(n, p, 0, in.blk)
				variant = vMissFill
			}
			v = n.lineV[c.lv(p, 0, in.blk)+in.wi]
		}
		c.pushReg(n, p, v)
		n.procs[p].pc++
		emit(sdesc{kind: sdProc, proc: p8, op: OpRead, variant: variant, loc: in.loc, val: v}, n)

	case OpWrite:
		n := w.clone(s)
		variant := vPrivate
		kind := 0
		if n.lineF[c.li(p, 1, in.blk)]&lfPresent != 0 {
			kind = 1
			variant = vLockLine
		} else if n.lineF[c.li(p, 0, in.blk)]&lfPresent == 0 {
			c.installLine(n, p, 0, in.blk)
		}
		n.lineV[c.lv(p, kind, in.blk)+in.wi] = in.val
		n.lineD[c.li(p, kind, in.blk)] |= 1 << uint(in.wi)
		n.procs[p].pc++
		emit(sdesc{kind: sdProc, proc: p8, op: OpWrite, variant: variant, loc: in.loc, val: in.val}, n)

	case OpReadGlobal:
		n := w.clone(s)
		v := n.mem[in.wrd]
		c.pushReg(n, p, v)
		n.procs[p].pc++
		emit(sdesc{kind: sdProc, proc: p8, op: OpReadGlobal, loc: in.loc, val: v}, n)

	case OpWriteGlobal:
		n := w.clone(s)
		np := &n.procs[p]
		if n.lineF[c.li(p, 1, in.blk)]&lfPresent != 0 {
			// Under a write lock the store goes to the lock line, not the
			// buffer (the concrete machine's WriteLocked path).
			n.lineV[c.lv(p, 1, in.blk)+in.wi] = in.val
			n.lineD[c.li(p, 1, in.blk)] |= 1 << uint(in.wi)
			np.pc++
			emit(sdesc{kind: sdProc, proc: p8, op: OpWriteGlobal, variant: vLockLine, loc: in.loc, val: in.val}, n)
			return
		}
		if n.lineF[c.li(p, 0, in.blk)]&lfPresent != 0 {
			// Issue-time self-update of the local copy (dirty bits as-is).
			n.lineV[c.lv(p, 0, in.blk)+in.wi] = in.val
		}
		n.buf[int(c.bufOff[p])+int(np.bufHi)] = bufent{val: in.val, wrd: int16(in.wrd), blk: int8(in.blk), wi: int8(in.wi)}
		np.bufHi++
		np.pc++
		emit(sdesc{kind: sdProc, proc: p8, op: OpWriteGlobal, variant: vBuffered, loc: in.loc, val: in.val}, n)

	case OpReadUpdate:
		if f := s.lineF[c.li(p, 0, in.blk)]; f&lfPresent != 0 && f&lfUpdate != 0 {
			n := w.clone(s)
			v := n.lineV[c.lv(p, 0, in.blk)+in.wi]
			c.pushReg(n, p, v)
			n.procs[p].pc++
			emit(sdesc{kind: sdProc, proc: p8, op: OpReadUpdate, variant: vSubHit, loc: in.loc, val: v}, n)
			return
		}
		n := w.clone(s)
		v := c.subscribeRU(n, p, in)
		emit(sdesc{kind: sdProc, proc: p8, op: OpReadUpdate, variant: vSubscribe, loc: in.loc, val: v}, n)
		// A still-pending RESET-UPDATE may be processed before or after the
		// re-subscription; the late ordering silently cancels it.
		for i, un := range s.unsub {
			if int(un.proc) == p && int(un.blk) == in.blk {
				n2 := w.clone(s)
				n2.unsub = append(n2.unsub[:i], n2.unsub[i+1:]...)
				n2.subs[in.blk] &^= 1 << uint(p)
				v2 := c.subscribeRU(n2, p, in)
				emit(sdesc{kind: sdProc, proc: p8, op: OpReadUpdate, variant: vSubAfterReset, loc: in.loc, val: v2}, n2)
				break
			}
		}

	case OpResetUpdate:
		n := w.clone(s)
		variant := vNoop
		i := c.li(p, 0, in.blk)
		if f := n.lineF[i]; f&lfPresent != 0 && f&lfUpdate != 0 {
			n.lineF[i] &^= lfUpdate
			n.unsub = append(n.unsub, unsubm{proc: p8, blk: int8(in.blk)})
			variant = vReset
		}
		n.procs[p].pc++
		emit(sdesc{kind: sdProc, proc: p8, op: OpResetUpdate, variant: variant, loc: in.loc}, n)

	case OpFlush:
		n := w.clone(s)
		np := &n.procs[p]
		if np.bufLo == np.bufHi || c.mut == MutCPSynch {
			np.pc++
			emit(sdesc{kind: sdProc, proc: p8, op: OpFlush, variant: vEmpty}, n)
			return
		}
		np.status = stFlush
		emit(sdesc{kind: sdProc, proc: p8, op: OpFlush, variant: vStall, aux: int32(np.bufHi - np.bufLo)}, n)

	case OpReadLock, OpWriteLock:
		n := w.clone(s)
		if c.mut == MutNPSynch && ps.stage == 0 && ps.bufLo != ps.bufHi {
			// Strengthened NP-Synch: acquisition drains the buffer first,
			// like a CP-Synch point. The drained proc re-executes the
			// acquire (unblockFlush only resets status for lock ops).
			n.procs[p].status = stFlush
			emit(sdesc{kind: sdProc, proc: p8, op: in.op, variant: vQueued, loc: in.loc}, n)
			return
		}
		write := in.op == OpWriteLock
		q0 := in.blk * c.nproc
		qn := int(n.lockN[in.blk])
		grantable := qn == 0
		if !grantable && !write {
			grantable = true
			for j := 0; j < qn; j++ {
				if e := n.lockQ[q0+j]; e&lqHold == 0 || e&lqWrite != 0 {
					grantable = false
					break
				}
			}
		}
		e := uint8(p)
		if write {
			e |= lqWrite
		}
		if grantable {
			e |= lqHold
		}
		n.lockQ[q0+qn] = e
		n.lockN[in.blk]++
		if grantable {
			c.grant(n, p, in.blk)
			n.procs[p].pc++ // grant() only advances stLock waiters
			emit(sdesc{kind: sdProc, proc: p8, op: in.op, variant: vGranted, loc: in.loc}, n)
			return
		}
		n.procs[p].status = stLock
		emit(sdesc{kind: sdProc, proc: p8, op: in.op, variant: vQueued, loc: in.loc}, n)

	case OpUnlock:
		n := w.clone(s)
		np := &n.procs[p]
		if ps.stage == 0 {
			if np.bufLo != np.bufHi && c.mut != MutCPSynch {
				np.status = stFlush
				emit(sdesc{kind: sdProc, proc: p8, op: OpUnlock, variant: vFlushFirst, loc: in.loc}, n)
				return
			}
			np.stage = 1
			emit(sdesc{kind: sdProc, proc: p8, op: OpUnlock, variant: vBufEmpty, loc: in.loc}, n)
			return
		}
		c.release(n, p, in.blk)
		np.pc++
		np.stage = 0
		emit(sdesc{kind: sdProc, proc: p8, op: OpUnlock, variant: vReleased, loc: in.loc}, n)

	case OpBarrier:
		n := w.clone(s)
		np := &n.procs[p]
		if ps.stage == 0 {
			if np.bufLo != np.bufHi && c.mut != MutCPSynch {
				np.status = stFlush
				emit(sdesc{kind: sdProc, proc: p8, op: OpBarrier, variant: vFlushFirst, loc: in.loc}, n)
				return
			}
			np.stage = 1
			emit(sdesc{kind: sdProc, proc: p8, op: OpBarrier, variant: vBufEmpty, loc: in.loc}, n)
			return
		}
		if c.mut == MutBarrier {
			// No rendezvous: the arriving processor continues alone.
			np.stage = 0
			np.pc++
			emit(sdesc{kind: sdProc, proc: p8, op: OpBarrier, variant: vLastArrival, loc: in.loc}, n)
			return
		}
		mask := n.bars[in.blk] | 1<<uint(p)
		if bits.OnesCount8(mask) == c.nproc {
			for q := 0; q < c.nproc; q++ {
				qs := &n.procs[q]
				qs.status = stRun
				qs.stage = 0
				qs.pc++
			}
			n.bars[in.blk] = 0
			emit(sdesc{kind: sdProc, proc: p8, op: OpBarrier, variant: vLastArrival, loc: in.loc}, n)
			return
		}
		n.bars[in.blk] = mask
		np.status = stBar
		emit(sdesc{kind: sdProc, proc: p8, op: OpBarrier, variant: vWaiting, loc: in.loc}, n)
	}
}

// retireStep emits the state where p's oldest buffered write performs at
// memory, generating update propagations to the block's subscribers.
func (c *compiled) retireStep(w *worker, s *mstate, p int, emit emitFn) {
	c.retireStepAt(w, s, p, int(s.procs[p].bufLo), emit)
}

// retireStepAt retires the buffered entry at window index j: the head in
// the real model, any live entry under MutFIFO.
func (c *compiled) retireStepAt(w *worker, s *mstate, p, j int, emit emitFn) {
	off := int(c.bufOff[p])
	e := s.buf[off+j]
	n := w.clone(s)
	np := &n.procs[p]
	if j == int(np.bufLo) {
		np.bufLo++
	} else {
		copy(n.buf[off+j:off+int(np.bufHi)-1], n.buf[off+j+1:off+int(np.bufHi)])
		np.bufHi--
	}
	n.mem[e.wrd] = e.val
	b := &c.blocks[e.blk]
	if m := n.subs[e.blk]; m != 0 && c.mut != MutFresh {
		var pr propm
		pr.blk = e.blk
		pr.n = int8(len(b.words))
		copy(pr.vals[:len(b.words)], n.mem[b.base:b.base+len(b.words)])
		for q := 0; q < c.nproc; q++ {
			if m&(1<<uint(q)) != 0 {
				pr.dst = int8(q)
				n.props = append(n.props, pr)
			}
		}
	}
	c.unblockFlush(n, p)
	emit(sdesc{kind: sdRetire, proc: int8(p), loc: Loc{Block: b.id, Word: b.words[e.wi]}, val: e.val}, n)
}

// propStep emits the state where in-flight propagation i is delivered:
// its snapshot merges into the clean words of the destination's line if
// present, and is dropped otherwise.
func (c *compiled) propStep(w *worker, s *mstate, i int, emit emitFn) {
	pr := s.props[i]
	n := w.clone(s)
	n.props = append(n.props[:i], n.props[i+1:]...)
	li := c.li(int(pr.dst), 0, int(pr.blk))
	variant := vDropped
	if n.lineF[li]&lfPresent != 0 {
		d := n.lineD[li]
		v0 := c.lv(int(pr.dst), 0, int(pr.blk))
		for wi := 0; wi < int(pr.n); wi++ {
			if d&(1<<uint(wi)) == 0 || c.mut == MutCoherence {
				n.lineV[v0+wi] = pr.vals[wi]
			}
		}
		variant = vApplied
	}
	emit(sdesc{kind: sdProp, proc: pr.dst, variant: variant, aux: int32(c.blocks[pr.blk].id)}, n)
}

// unsubStep emits the state where in-flight unsubscription i reaches the
// home node and clears the subscriber bit.
func (c *compiled) unsubStep(w *worker, s *mstate, i int, emit emitFn) {
	un := s.unsub[i]
	n := w.clone(s)
	n.unsub = append(n.unsub[:i], n.unsub[i+1:]...)
	n.subs[un.blk] &^= 1 << uint(un.proc)
	emit(sdesc{kind: sdUnsub, proc: un.proc, aux: int32(c.blocks[un.blk].id)}, n)
}

// expand emits every enabled transition of s in canonical order:
// processor steps and buffer retires interleaved per proc, then
// propagation deliveries, then unsubscriptions.
func (c *compiled) expand(w *worker, s *mstate, emit emitFn) {
	for p := 0; p < c.nproc; p++ {
		ps := &s.procs[p]
		if ps.status == stRun && int(ps.pc) < len(c.prog[p]) {
			c.procStep(w, s, p, emit)
		}
		if ps.bufLo != ps.bufHi {
			if c.mut == MutFIFO {
				for j := int(ps.bufLo); j < int(ps.bufHi); j++ {
					c.retireStepAt(w, s, p, j, emit)
				}
			} else {
				c.retireStep(w, s, p, emit)
			}
		}
	}
	for i := range s.props {
		c.propStep(w, s, i, emit)
	}
	for i := range s.unsub {
		c.unsubStep(w, s, i, emit)
	}
}

// enabledCount counts the transitions expand would emit, without cloning.
// Used for POR's Pruned accounting.
func (c *compiled) enabledCount(s *mstate) int {
	n := len(s.props) + len(s.unsub)
	for p := 0; p < c.nproc; p++ {
		ps := &s.procs[p]
		if ps.bufLo != ps.bufHi {
			n++
		}
		if ps.status == stRun && int(ps.pc) < len(c.prog[p]) {
			n++
			in := &c.prog[p][ps.pc]
			if in.op == OpReadUpdate {
				if f := s.lineF[c.li(p, 0, in.blk)]; f&lfPresent == 0 || f&lfUpdate == 0 {
					for _, un := range s.unsub {
						if int(un.proc) == p && int(un.blk) == in.blk {
							n++
							break
						}
					}
				}
			}
		}
	}
	return n
}
