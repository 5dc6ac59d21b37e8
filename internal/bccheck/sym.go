package bccheck

// Symmetry reduction.
//
// The §2 axioms never mention a concrete processor index, block address,
// or barrier identity: every rule is stated "for each processor", "for
// each block". So any renaming of processors/blocks/barriers under which
// the *program system* (instruction sequences, initial memory, observed
// locations) is invariant is an automorphism of the transition system:
// it maps states to states, transitions to transitions, and terminal
// outcomes to terminal outcomes. Exploring one representative per orbit
// is therefore sound, provided the final outcome set is closed under the
// group again (result() does that), so Result keys are exactly the
// symmetry-off keys.
//
// The group is computed once at compile time (computeSyms): processor
// permutations are enumerated within program-shape classes — two procs
// can swap only if their lowered instruction sequences agree
// op-for-op, word-index-for-word-index and value-for-value — and each
// candidate forces a block/barrier unification instruction by
// instruction. A candidate survives if the forced block map is
// injective, maps blocks onto structurally identical blocks (same word
// lists), preserves initial memory, and permutes the observe list onto
// itself. The surviving set is the full automorphism group (minus the
// identity): block maps are forced by unification, so the set is closed
// under composition and inverse.
//
// Canonicalization picks, per state, the orbit member with the
// lexicographically least encoding (materialize each g·s with applyPerm,
// encode, compare). The engine then explores *from the representative*,
// which is what makes the reduction compose with POR: the
// representative — including the order of its in-flight prop/unsub
// slices, normalized by normInflight — is a pure function of the orbit,
// so the ample choice and the successor set are the same whichever orbit
// member arrived first.
//
// Witness mode and model mutations disable symmetry (compile() skips
// computeSyms).

import "encoding/binary"

// symPerm is one non-identity automorphism of the compiled system. All
// maps send original indices to renamed indices over compiled (dense)
// numbering; wmap/omap are derived from the block map. The i-prefixed
// inverse maps let encodePerm emit the encoding of g·s by walking s in
// target order without materializing the permuted state.
type symPerm struct {
	pp    [8]int8 // processor map
	ipp   [8]int8 // inverse processor map
	bp    []int8  // compiled block map
	ibp   []int8  // inverse block map
	barp  []int8  // compiled barrier map
	ibarp []int8  // inverse barrier map
	wmap  []int32 // global word map
	iwmap []int32 // inverse global word map
	omap  []int32 // observe-position map
}

// computeSyms enumerates the automorphism group and stores every
// non-identity element in c.syms.
func (c *compiled) computeSyms() {
	// Shape signature: everything about a proc's program except which
	// blocks/barriers it names. Two procs are swappable only if equal.
	sig := make([]string, c.nproc)
	{
		var b []byte
		for p, instrs := range c.prog {
			b = b[:0]
			for _, in := range instrs {
				b = append(b, byte(in.op), byte(in.wi))
				b = binary.AppendUvarint(b, in.val)
			}
			sig[p] = string(b)
		}
	}
	nb, nbar := len(c.blocks), c.nbar
	pp := make([]int8, c.nproc)
	used := make([]bool, c.nproc)
	bmap := make([]int8, nb)
	binv := make([]int8, nb)
	barm := make([]int8, nbar)
	barinv := make([]int8, nbar)
	for i := range bmap {
		bmap[i], binv[i] = -1, -1
	}
	for i := range barm {
		barm[i], barinv[i] = -1, -1
	}
	var rec func(p int)
	rec = func(p int) {
		if p == c.nproc {
			c.trySym(pp, bmap, barm)
			return
		}
		for q := 0; q < c.nproc; q++ {
			if used[q] || sig[q] != sig[p] {
				continue
			}
			// Unify p's program with q's: instruction k of p names block
			// B, instruction k of q names block B', so the map must send
			// B to B' (and likewise for barriers). Record assignments for
			// backtracking.
			var undoB, undoBar []int8
			ok := true
			for k := range c.prog[p] {
				a, b := &c.prog[p][k], &c.prog[q][k]
				if a.op == OpFlush {
					continue
				}
				m, inv, undo := bmap, binv, &undoB
				if a.op == OpBarrier {
					m, inv, undo = barm, barinv, &undoBar
				}
				if m[a.blk] == -1 {
					if inv[b.blk] != -1 {
						ok = false
						break
					}
					m[a.blk], inv[b.blk] = int8(b.blk), int8(a.blk)
					*undo = append(*undo, int8(a.blk))
				} else if m[a.blk] != int8(b.blk) {
					ok = false
					break
				}
			}
			if ok {
				pp[p], used[q] = int8(q), true
				rec(p + 1)
				used[q] = false
			}
			for _, x := range undoB {
				binv[bmap[x]], bmap[x] = -1, -1
			}
			for _, x := range undoBar {
				barinv[barm[x]], barm[x] = -1, -1
			}
		}
	}
	rec(0)
	if len(c.syms) > 0 {
		c.blkByID = make(map[int]int, nb)
		for i := range c.blocks {
			c.blkByID[c.blocks[i].id] = i
		}
		c.barByID = make(map[int]int, nbar)
		for i, id := range c.barName {
			c.barByID[id] = i
		}
	}
}

// trySym completes a fully-unified candidate (blocks/barriers not forced
// by any instruction map identically), validates the structural side
// conditions, and appends the automorphism.
func (c *compiled) trySym(pp, bmap, barm []int8) {
	nb, nbar := len(c.blocks), c.nbar
	bm := make([]int8, nb)
	copy(bm, bmap)
	tgt := make([]bool, nb)
	for _, t := range bm {
		if t >= 0 {
			tgt[t] = true
		}
	}
	for b := range bm {
		if bm[b] == -1 {
			if tgt[b] {
				return
			}
			bm[b], tgt[b] = int8(b), true
		}
	}
	brm := make([]int8, nbar)
	copy(brm, barm)
	btgt := make([]bool, nbar)
	for _, t := range brm {
		if t >= 0 {
			btgt[t] = true
		}
	}
	for b := range brm {
		if brm[b] == -1 {
			if btgt[b] {
				return
			}
			brm[b], btgt[b] = int8(b), true
		}
	}
	// Mapped blocks must be structurally identical (same user word list,
	// so word indices line up) and carry the same initial memory.
	for b := range c.blocks {
		src, dst := &c.blocks[b], &c.blocks[bm[b]]
		if len(src.words) != len(dst.words) {
			return
		}
		for i := range src.words {
			if src.words[i] != dst.words[i] || c.init[src.base+i] != c.init[dst.base+i] {
				return
			}
		}
	}
	id := true
	for p := 0; p < c.nproc; p++ {
		if pp[p] != int8(p) {
			id = false
		}
	}
	for b := range bm {
		if bm[b] != int8(b) {
			id = false
		}
	}
	for b := range brm {
		if brm[b] != int8(b) {
			id = false
		}
	}
	if id {
		return
	}
	wmap := make([]int32, c.nwords)
	for b := range c.blocks {
		src, dst := &c.blocks[b], &c.blocks[bm[b]]
		for i := range src.words {
			wmap[src.base+i] = int32(dst.base + i)
		}
	}
	// The observed word multiset must be invariant, and we need the
	// position map to translate outcomes.
	omap := make([]int32, len(c.observe))
	usedObs := make([]bool, len(c.observe))
	for i, w := range c.observe {
		t := int(wmap[w])
		found := false
		for j, w2 := range c.observe {
			if !usedObs[j] && w2 == t {
				omap[i], usedObs[j], found = int32(j), true, true
				break
			}
		}
		if !found {
			return
		}
	}
	g := symPerm{bp: bm, barp: brm, wmap: wmap, omap: omap}
	copy(g.pp[:c.nproc], pp)
	for p := 0; p < c.nproc; p++ {
		g.ipp[g.pp[p]] = int8(p)
	}
	g.ibp = make([]int8, nb)
	for b, t := range bm {
		g.ibp[t] = int8(b)
	}
	g.ibarp = make([]int8, nbar)
	for b, t := range brm {
		g.ibarp[t] = int8(b)
	}
	g.iwmap = make([]int32, c.nwords)
	for w, t := range wmap {
		g.iwmap[t] = int32(w)
	}
	c.syms = append(c.syms, g)
}

// applyPerm materializes t = g·s. Dead regions (registers beyond nregs,
// buffer slots outside the live window, values of absent lines) are not
// copied; they are never read and never encoded.
func (c *compiled) applyPerm(g *symPerm, s, t *mstate) {
	nb := len(c.blocks)
	for w, v := range s.mem {
		t.mem[g.wmap[w]] = v
	}
	for p := 0; p < c.nproc; p++ {
		q := int(g.pp[p])
		ps := s.procs[p]
		t.procs[q] = ps
		ro, rq := int(c.regOff[p]), int(c.regOff[q])
		copy(t.regs[rq:rq+int(ps.nregs)], s.regs[ro:ro+int(ps.nregs)])
		bo, bq := int(c.bufOff[p]), int(c.bufOff[q])
		for j := int(ps.bufLo); j < int(ps.bufHi); j++ {
			e := s.buf[bo+j]
			e.wrd = int16(g.wmap[e.wrd])
			e.blk = g.bp[e.blk]
			t.buf[bq+j] = e
		}
		for kind := 0; kind < 2; kind++ {
			for b := 0; b < nb; b++ {
				tb := int(g.bp[b])
				si, ti := c.li(p, kind, b), c.li(q, kind, tb)
				f := s.lineF[si]
				t.lineF[ti] = f
				t.lineD[ti] = s.lineD[si]
				if f&lfPresent != 0 {
					sv, tv := c.lv(p, kind, b), c.lv(q, kind, tb)
					copy(t.lineV[tv:tv+len(c.blocks[b].words)], s.lineV[sv:sv+len(c.blocks[b].words)])
				}
			}
		}
	}
	for b := 0; b < nb; b++ {
		tb := int(g.bp[b])
		qn := int(s.lockN[b])
		t.lockN[tb] = s.lockN[b]
		for j := 0; j < qn; j++ {
			e := s.lockQ[b*c.nproc+j]
			t.lockQ[tb*c.nproc+j] = e&^lqProc | uint8(g.pp[e&lqProc])
		}
		var m uint8
		for p := 0; p < c.nproc; p++ {
			if s.subs[b]&(1<<uint(p)) != 0 {
				m |= 1 << uint(g.pp[p])
			}
		}
		t.subs[tb] = m
	}
	for k := 0; k < c.nbar; k++ {
		var m uint8
		for p := 0; p < c.nproc; p++ {
			if s.bars[k]&(1<<uint(p)) != 0 {
				m |= 1 << uint(g.pp[p])
			}
		}
		t.bars[int(g.barp[k])] = m
	}
	t.props = t.props[:0]
	for i := range s.props {
		pr := s.props[i]
		pr.dst = g.pp[pr.dst]
		pr.blk = g.bp[pr.blk]
		t.props = append(t.props, pr)
	}
	t.unsub = t.unsub[:0]
	for _, un := range s.unsub {
		t.unsub = append(t.unsub, unsubm{proc: g.pp[un.proc], blk: g.bp[un.blk]})
	}
}

// normInflight sorts a representative's in-flight multisets into the
// order encode() would emit them. Two orbit-equal states then behave
// identically — the ample choice and the emission order of prop/unsub
// steps are functions of slice order — which is what makes the reduced
// graph a pure function of the canonical encoding.
func normInflight(s *mstate) {
	pr := s.props
	for i := 1; i < len(pr); i++ {
		for j := i; j > 0 && propLess(&pr[j], &pr[j-1]); j-- {
			pr[j], pr[j-1] = pr[j-1], pr[j]
		}
	}
	un := s.unsub
	for i := 1; i < len(un); i++ {
		for j := i; j > 0 && unsubLess(un[j], un[j-1]); j-- {
			un[j], un[j-1] = un[j-1], un[j]
		}
	}
}

// encodePerm emits the byte encoding of g·s — byte-identical to
// encode(applyPerm(g, s, ·)) — by walking s in target order through g's
// inverse maps, so orbit comparison never materializes the permuted
// state. Uses w.scratch; the sections mirror encode() exactly.
func (c *compiled) encodePerm(w *worker, s *mstate, g *symPerm) []byte {
	b := w.scratch[:0]
	for wp := range s.mem {
		b = binary.AppendUvarint(b, s.mem[g.iwmap[wp]])
	}
	nb := len(c.blocks)
	for q := 0; q < c.nproc; q++ {
		p := int(g.ipp[q])
		ps := &s.procs[p]
		b = append(b, uint8(ps.pc), uint8(ps.stage), ps.status, uint8(ps.nregs))
		off := int(c.regOff[p])
		for _, v := range s.regs[off : off+int(ps.nregs)] {
			b = binary.AppendUvarint(b, v)
		}
		b = append(b, uint8(ps.bufHi-ps.bufLo))
		boff := int(c.bufOff[p])
		for _, e := range s.buf[boff+int(ps.bufLo) : boff+int(ps.bufHi)] {
			b = append(b, uint8(g.wmap[e.wrd]))
			b = binary.AppendUvarint(b, e.val)
		}
	}
	for q := 0; q < c.nproc; q++ {
		p := int(g.ipp[q])
		for kind := 0; kind < 2; kind++ {
			for tb := 0; tb < nb; tb++ {
				sb := int(g.ibp[tb])
				f := s.lineF[c.li(p, kind, sb)]
				b = append(b, f)
				if f&lfPresent == 0 {
					continue
				}
				b = append(b, s.lineD[c.li(p, kind, sb)])
				v0 := c.lv(p, kind, sb)
				for _, v := range s.lineV[v0 : v0+len(c.blocks[sb].words)] {
					b = binary.AppendUvarint(b, v)
				}
			}
		}
	}
	for tb := 0; tb < nb; tb++ {
		sb := int(g.ibp[tb])
		qn := int(s.lockN[sb])
		b = append(b, uint8(qn))
		for _, e := range s.lockQ[sb*c.nproc : sb*c.nproc+qn] {
			b = append(b, e&^lqProc|uint8(g.pp[e&lqProc]))
		}
	}
	for tb := 0; tb < nb; tb++ {
		var m uint8
		for p := 0; p < c.nproc; p++ {
			if s.subs[g.ibp[tb]]&(1<<uint(p)) != 0 {
				m |= 1 << uint(g.pp[p])
			}
		}
		b = append(b, m)
	}
	for tk := 0; tk < c.nbar; tk++ {
		var m uint8
		for p := 0; p < c.nproc; p++ {
			if s.bars[g.ibarp[tk]]&(1<<uint(p)) != 0 {
				m |= 1 << uint(g.pp[p])
			}
		}
		b = append(b, m)
	}

	// In-flight multisets: map, then emit in the sorted order encode()
	// would use for the materialized state.
	pp := w.permProps[:0]
	for i := range s.props {
		pr := s.props[i]
		pr.dst = g.pp[pr.dst]
		pr.blk = g.bp[pr.blk]
		pp = append(pp, pr)
	}
	w.permProps = pp
	for i := 1; i < len(pp); i++ {
		for j := i; j > 0 && propLess(&pp[j], &pp[j-1]); j-- {
			pp[j], pp[j-1] = pp[j-1], pp[j]
		}
	}
	b = append(b, uint8(len(pp)))
	for i := range pp {
		b = append(b, uint8(pp[i].dst), uint8(pp[i].blk))
		for _, v := range pp[i].vals[:pp[i].n] {
			b = binary.AppendUvarint(b, v)
		}
	}

	un := w.permUnsub[:0]
	for _, u := range s.unsub {
		un = append(un, unsubm{proc: g.pp[u.proc], blk: g.bp[u.blk]})
	}
	w.permUnsub = un
	for i := 1; i < len(un); i++ {
		for j := i; j > 0 && unsubLess(un[j], un[j-1]); j-- {
			un[j], un[j-1] = un[j-1], un[j]
		}
	}
	b = append(b, uint8(len(un)))
	for _, u := range un {
		b = append(b, uint8(u.proc), uint8(u.blk))
	}

	w.scratch = b
	return b
}

// canonicalize replaces ns with its orbit representative — the member
// with the lexicographically least encoding — and returns the group
// element that produced it (-1 for the identity). The representative's
// encoding is left in w.encBest for interning. ns is consumed: either
// returned or released to the pool. Orbit members are compared through
// encodePerm (no state copies); only the winning element, if any, is
// materialized once at the end.
func (w *worker) canonicalize(ns *mstate) (*mstate, int) {
	c := w.e.c
	w.encBest = append(w.encBest[:0], c.encode(w, ns)...)
	bestG := -1
	for gi := range c.syms {
		e2 := c.encodePerm(w, ns, &c.syms[gi])
		if bytesLess(e2, w.encBest) {
			w.encBest = append(w.encBest[:0], e2...)
			bestG = gi
		}
	}
	if bestG >= 0 {
		tmp := w.get()
		c.applyPerm(&c.syms[bestG], ns, tmp)
		w.put(ns)
		ns = tmp
	}
	normInflight(ns)
	return ns, bestG
}

func bytesLess(a, b []byte) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// canonAdd canonicalizes a successor, interns it, and reports the
// representative, the applied group element, and whether it was fresh.
func (w *worker) canonAdd(ns *mstate) (*mstate, int, bool) {
	if len(w.e.c.syms) == 0 {
		return ns, -1, w.e.vis.add(w.hash(ns))
	}
	nc, gi := w.canonicalize(ns)
	return nc, gi, w.e.vis.add(hash128(w.encBest))
}

// permView is a cumulative permutation accumulated along the
// exploration path: it sends original indices to the numbering the
// current representative uses. Deadlock and state-limit reports map
// their step labels back through the inverse so they always render in
// the program's own processor/location numbering.
type permView struct {
	pp   [8]int8
	bp   [16]int8
	barp [8]int8
}

func identView() permView {
	var v permView
	for i := range v.pp {
		v.pp[i] = int8(i)
	}
	for i := range v.bp {
		v.bp[i] = int8(i)
	}
	for i := range v.barp {
		v.barp[i] = int8(i)
	}
	return v
}

// composeView applies group element gi after the cumulative view cv.
func (c *compiled) composeView(gi int, cv permView) permView {
	if gi < 0 {
		return cv
	}
	g := &c.syms[gi]
	nv := identView()
	for p := 0; p < c.nproc; p++ {
		nv.pp[p] = g.pp[cv.pp[p]]
	}
	for b := 0; b < len(c.blocks); b++ {
		nv.bp[b] = g.bp[cv.bp[b]]
	}
	for k := 0; k < c.nbar; k++ {
		nv.barp[k] = g.barp[cv.barp[k]]
	}
	return nv
}

// origDesc maps a step descriptor emitted in cumulative-permuted
// numbering back to the program's original numbering.
func (c *compiled) origDesc(d sdesc, cv permView) sdesc {
	if len(c.syms) == 0 {
		return d
	}
	var iv permView
	for p := 0; p < c.nproc; p++ {
		iv.pp[cv.pp[p]] = int8(p)
	}
	for b := 0; b < len(c.blocks); b++ {
		iv.bp[cv.bp[b]] = int8(b)
	}
	for k := 0; k < c.nbar; k++ {
		iv.barp[cv.barp[k]] = int8(k)
	}
	d.proc = iv.pp[d.proc]
	mapBlk := func(userID int) int {
		return c.blocks[iv.bp[c.blkByID[userID]]].id
	}
	switch d.kind {
	case sdRetire:
		d.loc.Block = mapBlk(d.loc.Block)
	case sdProp, sdUnsub:
		d.aux = int32(mapBlk(int(d.aux)))
	case sdProc:
		switch d.op {
		case OpFlush:
		case OpBarrier:
			d.loc.Block = c.barName[iv.barp[c.barByID[d.loc.Block]]]
		default:
			d.loc.Block = mapBlk(d.loc.Block)
		}
	}
	return d
}

// permOutcome translates an outcome through g: processor register files
// and observed-memory positions move to their renamed slots. Used to
// close the terminal outcome set under the group, which restores exactly
// the symmetry-off Result keys.
func (c *compiled) permOutcome(g *symPerm, o *Outcome) *Outcome {
	po := &Outcome{Regs: make([][]uint64, c.nproc)}
	for p := 0; p < c.nproc; p++ {
		po.Regs[g.pp[p]] = append([]uint64(nil), o.Regs[p]...)
	}
	if len(o.Mem) > 0 {
		po.Mem = make([]uint64, len(o.Mem))
		for i, v := range o.Mem {
			po.Mem[g.omap[i]] = v
		}
	}
	return po
}
