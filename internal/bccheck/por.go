package bccheck

// Partial-order reduction.
//
// The exploration graph interleaves three kinds of "background"
// transitions — buffered writes retiring at memory, update propagations
// delivering, unsubscriptions reaching home — with processor steps. Most
// of those interleavings are equivalent: the transitions commute and
// their relative order is invisible in any outcome. When a state has
// such an invisible transition, the engine explores *only* it (a
// singleton ample set) and prunes the siblings.
//
// Soundness here means outcome-set preservation, not state-graph
// preservation: Enumerate answers "which terminal register/memory
// valuations are reachable", so the reduced graph must reach exactly the
// same outcome set (and the same deadlocks). Three facts carry the
// argument:
//
//  1. The graph is acyclic — every transition strictly decreases the
//     progress measure (remaining instructions + buffered writes +
//     in-flight messages), so no cycle/ignoring condition is needed.
//  2. Reduced paths are a subset of full paths, so the reduction can
//     never invent an outcome.
//  3. Each ample transition below commutes with every other enabled
//     transition and its effect is invisible to all future observations,
//     so any full path can be reordered to take the ample transition
//     first without changing its outcome — the reduction loses nothing.
//     Two load-bearing model invariants: data-cache lines are never
//     evicted (present stays present, so a proc whose line holds a block
//     never touches memory for it again), and in-flight deliveries may
//     be deferred arbitrarily (so "the prop exists earlier" never forces
//     an observation that the unreduced order could avoid).
//  4. Deadlocks are preserved: a stuck state has no retire/prop/unsub
//     pending (those are always enabled), and lock/barrier wait cycles
//     are unaffected by their timing.
//
// The per-transition conditions consult compile-time lookahead masks:
// futX[p][pc] has bit b set iff P's instructions at index >= pc touch
// block b in way X. A stalled or mid-instruction proc indexes at its
// current pc, so the current instruction is always included.

// computeMasks builds the lookahead masks from the lowered program.
func (c *compiled) computeMasks() {
	c.futMemNoWG = make([][]uint16, c.nproc)
	c.futWG = make([][]uint16, c.nproc)
	c.futPlainRead = make([][]uint16, c.nproc)
	c.futLineRead = make([][]uint16, c.nproc)
	for p, instrs := range c.prog {
		n := len(instrs)
		mem := make([]uint16, n+1)
		wg := make([]uint16, n+1)
		pr := make([]uint16, n+1)
		lr := make([]uint16, n+1)
		for i := n - 1; i >= 0; i-- {
			mem[i], wg[i], pr[i], lr[i] = mem[i+1], wg[i+1], pr[i+1], lr[i+1]
			in := &instrs[i]
			if in.op == OpFlush || in.op == OpBarrier {
				continue
			}
			bit := uint16(1) << uint(in.blk)
			switch in.op {
			case OpReadGlobal, OpReadUpdate, OpReadLock, OpWriteLock, OpUnlock:
				mem[i] |= bit
			case OpWriteGlobal:
				wg[i] |= bit
			}
			switch in.op {
			case OpRead:
				pr[i] |= bit
				lr[i] |= bit
			case OpReadUpdate:
				lr[i] |= bit
			}
		}
		c.futMemNoWG[p] = mem
		c.futWG[p] = wg
		c.futPlainRead[p] = pr
		c.futLineRead[p] = lr
	}
}

// Ample-transition kinds, in scan order.
const (
	ampUnsub uint8 = iota
	ampProp
	ampRetire
)

// ample returns the first invisible-tail transition of s, if any. The
// scan order is a fixed function of the state, so the reduced graph is a
// deterministic subgraph of the full one.
func (c *compiled) ample(s *mstate) (kind uint8, idx int, ok bool) {
	// An unsubscription delivery only clears a subscriber bit; that is
	// visible solely through the destination's future line reads (the
	// READ-UPDATE cancel branch, or line content via suppressed props —
	// and a suppressed prop matters only if the line is read again).
	for i, un := range s.unsub {
		if c.futLineRead[un.proc][s.procs[un.proc].pc]&(1<<uint(un.blk)) == 0 {
			return ampUnsub, i, true
		}
	}
	// A propagation delivery only rewrites clean words of the (private)
	// destination line; if the destination never reads that line again,
	// the delivery commutes with everything and observes nothing.
	for i := range s.props {
		pr := &s.props[i]
		if c.futLineRead[pr.dst][s.procs[pr.dst].pc]&(1<<uint(pr.blk)) == 0 {
			return ampProp, i, true
		}
	}
	// A retire of p's oldest write to block b is invisible iff no one can
	// still observe memory ordering on b: see retireAmple.
	for p := 0; p < c.nproc; p++ {
		ps := &s.procs[p]
		if ps.bufLo == ps.bufHi {
			continue
		}
		if c.retireAmple(s, p, int(s.buf[int(c.bufOff[p])+int(ps.bufLo)].blk)) {
			return ampRetire, p, true
		}
	}
	return 0, 0, false
}

// retireAmple reports whether retiring p's buffered head write to block b
// commutes invisibly with every other enabled transition:
//   - no other proc has a buffered write to b (memory order between
//     different writers is observable), and no proc can still observe
//     memory for b (READ-GLOBAL / READ-UPDATE subscribe snapshot / lock
//     grant or release — futMem), except p's own later WRITE-GLOBALs,
//     whose order p's FIFO fixes anyway;
//   - any proc with a future plain READ of b already holds the line
//     (lines are never evicted, so the read can't miss to memory; props
//     the retire generates remain freely deferrable past those reads).
func (c *compiled) retireAmple(s *mstate, p, b int) bool {
	bit := uint16(1) << uint(b)
	for q := 0; q < c.nproc; q++ {
		qs := &s.procs[q]
		pc := qs.pc
		if q == p {
			if c.futMemNoWG[q][pc]&bit != 0 {
				return false
			}
		} else {
			if (c.futMemNoWG[q][pc]|c.futWG[q][pc])&bit != 0 {
				return false
			}
			off := int(c.bufOff[q])
			for j := off + int(qs.bufLo); j < off+int(qs.bufHi); j++ {
				if int(s.buf[j].blk) == b {
					return false
				}
			}
		}
		if c.futPlainRead[q][pc]&bit != 0 && s.lineF[c.li(q, 0, b)]&lfPresent == 0 {
			return false
		}
	}
	return true
}

// expandReduced is expand with POR applied: when an ample transition
// exists, only it is emitted and the pruned siblings are counted.
func (e *engine) expandReduced(w *worker, s *mstate, emit emitFn) {
	c := e.c
	if !c.tune.DisablePOR {
		if kind, idx, ok := c.ample(s); ok {
			e.pruned += c.enabledCount(s) - 1
			switch kind {
			case ampUnsub:
				c.unsubStep(w, s, idx, emit)
			case ampProp:
				c.propStep(w, s, idx, emit)
			case ampRetire:
				c.retireStep(w, s, idx, emit)
			}
			return
		}
	}
	c.expand(w, s, emit)
}
