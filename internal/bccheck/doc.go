// Package bccheck is the axiomatic model of buffered consistency (BC), the
// memory model of the paper's §2, together with an exhaustive enumerator of
// the final-state outcomes the model allows for small programs.
//
// An execution is a set of events — READ, WRITE, READ-GLOBAL, WRITE-GLOBAL,
// READ-UPDATE, RESET-UPDATE, FLUSH-BUFFER, READ-LOCK, WRITE-LOCK, UNLOCK,
// BARRIER (Table 1) — related by program order (po) and reads-from (rf). An
// execution is BC-consistent when it satisfies the axioms below; a final
// outcome (the values returned by each processor's reads plus the final
// memory contents of observed words) is *allowed* when some BC-consistent
// execution produces it.
//
// # Axioms
//
//  1. Program order. Each processor executes its instructions in order.
//     BC relaxes *global visibility*, never local execution: the only
//     asynchronous operation is WRITE-GLOBAL, whose global performance is
//     decoupled from its issue.
//  2. Write-buffer FIFO. The WRITE-GLOBALs of one processor are globally
//     performed (reach memory) in issue order, after an arbitrary finite
//     delay. At issue, the writing processor's own cached copy of the word,
//     if present, is updated immediately.
//  3. Single memory timeline. Globally performed writes to a word are
//     totally ordered, and READ-GLOBAL returns the current memory value at
//     the moment it executes. Hence two READ-GLOBALs in program order can
//     never observe two writes in the opposite of their memory order.
//  4. CP-Synch / FLUSH-BUFFER. FLUSH-BUFFER completes only once every
//     WRITE-GLOBAL previously issued by that processor is globally
//     performed; no later instruction of that processor executes before it
//     completes. UNLOCK and BARRIER issue an implicit FLUSH-BUFFER before
//     taking effect (they are CP-Synch operations: work published before
//     the synch is globally visible after it).
//  5. NP-Synch. READ-LOCK and WRITE-LOCK are NP-Synch operations: acquiring
//     a lock orders nothing — it neither flushes the buffer nor invalidates
//     the private cache. (The data protected by the lock is safe anyway,
//     by axiom 6.)
//  6. Lock-carried data. Lock grants are FIFO per lock block with reader
//     batching (consecutive readers at the head are granted together;
//     writers are exclusive). A grant carries the lock block's memory
//     contents as of grant time; an UNLOCK by a write holder merges the
//     words it dirtied back to memory before any successor is granted.
//     Data accessed only under a lock is therefore sequentially consistent
//     among lock holders.
//  7. Private cache weakness, per-word coherence. Plain READ returns the
//     value of the local copy, installing it from memory on a miss;
//     staleness is unbounded (nothing invalidates it). Plain WRITE dirties
//     the local copy only and is never written back. All installs and
//     update propagations merge per word, refreshing only words the local
//     copy has not dirtied.
//  8. READ-UPDATE freshness. READ-UPDATE subscribes the local copy to the
//     word's block and returns a value at least as fresh as memory at
//     subscription time. After each globally performed write to a
//     subscribed block, an update propagation carrying the block's memory
//     contents at that instant is delivered to each subscriber after an
//     arbitrary finite delay (delivery is asynchronous: a flush does not
//     wait for it). RESET-UPDATE cancels the subscription, again
//     asynchronously.
//  9. Cache monotonicity. Between consecutive update propagations (and
//     absent local writes), the local copy of a word is constant: two
//     program-ordered plain READs of a word cannot observe an older value
//     after a newer one for a single globally performed write (CoRR holds
//     per word within a copy).
//  10. Barrier. A BARRIER episode releases no participant until every
//     participant has arrived — and, by axiom 4, has drained its write
//     buffer. All pre-barrier global writes are visible to all post-barrier
//     READ-GLOBALs (but NOT necessarily to post-barrier plain READs of
//     previously cached copies — axiom 7 — nor instantly to READ-UPDATE
//     subscribers — axiom 8).
//
// # Enumeration
//
// Enumerate realizes the axioms operationally: a small-step abstract
// machine whose nondeterministic choices are exactly the freedoms the
// axioms leave open — the interleaving of processor steps, the retirement
// point of each buffered write, the delivery point of each update
// propagation, and the application point of each unsubscription. A
// depth-first search over this machine with memoized states visits every
// reachable quiescent final state; the set of their outcomes is the allowed
// set. Where the concrete machine's network makes some delivery orders
// impossible, the abstract machine still explores them: the enumerated set
// is a sound over-approximation of the concrete machine's behaviors, which
// is the direction the litmus harness needs (observed ⊆ allowed).
//
// The model covers the default CBL/BC configuration: reader-initiated
// update coherence, unbounded non-coalescing write buffer, no direct lock
// handoff, and working sets small enough that no cache eviction occurs.
//
// # Exploration engine
//
// The search is built for throughput without giving up determinism.
// States live in pooled flat arrays (a clone is a few memcpys) and are
// interned by a 128-bit hash of a canonical encoding in a visited set —
// no per-state strings, and at the default 2M-state cap the collision
// probability of the fixed-seed 128-bit hash is negligible (~2^-87).
// Successor labels are small structured descriptors rendered to text only
// when a witness (Options.Witnesses) or a deadlock report is emitted.
// Partial-order reduction prunes interleavings of
// retire/propagation/unsubscription transitions that provably commute
// invisibly (see por.go for the soundness argument); Result.Pruned counts
// what it skipped, and Tuning.DisablePOR restores the full graph.
// Exploration is one depth-first search, so outcome set, States, and
// Pruned are deterministic; its path gives each outcome's witness and the
// canonical deadlock report. The search is serial because litmus
// programs are small (about 90 states each on the corpus) and callers
// with cores to spare run whole programs concurrently instead.
//
// Symmetry reduction (sym.go) quotients the state space by the program's
// automorphism group: processor/block/barrier renamings under which the
// compiled system is invariant, computed once at compile time. Each
// successor is replaced by its orbit representative (least encoding, via
// a fused permuted encoder that never materializes non-winning orbit
// members), terminal outcomes are closed under the group again, and
// deadlock/state-limit labels are mapped back through the accumulated
// permutation — so Result keys and error reports are exactly the
// symmetry-off ones at a fraction of the states. Tuning.DisableSymmetry
// turns the quotient off; witness mode and model mutations disable it
// automatically.
//
// Model mutations (mutate.go) are single-axiom ablations used by
// internal/litmus to compute axiom-coverage vectors: a mutated model
// explores the full graph (both reductions are proved against the real
// semantics only) and a test covers an axiom iff its outcome-key set
// changes under that axiom's mutation.
package bccheck
