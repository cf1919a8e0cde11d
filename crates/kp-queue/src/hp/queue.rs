//! Shared structure and helping machinery of the hazard-pointer queue.
//!
//! The control flow mirrors `crate::queue` (the epoch version) line for
//! line — the same paper line references and memory-ordering audit
//! apply — with two differences:
//!
//! 1. every shared *node* dereference is covered by a hazard slot,
//!    validated by re-reading the pointer's source. Descriptors need no
//!    hazard at all: `state[tid]` is an in-place packed [`StateSlot`]
//!    word (`crate::desc`), read with one atomic load. This dissolves
//!    the seed's `H_DESC` re-protect/validate dance — and with it a
//!    whole class of descriptor lifetime bugs — because there is no
//!    descriptor object whose lifetime could end mid-read.
//! 2. a completed non-empty dequeue's word points at the *value node*
//!    (the new sentinel) rather than couriering the value through a
//!    descriptor (§3.4's copy). The owner's epilogue dereferences that
//!    node hazard-free, protected by the two-token disposal gate on the
//!    node (`hp::types`): the node cannot be freed or recycled before
//!    the owner's `TOKEN_CONSUMED` fetch_or, which the owner itself
//!    performs after taking the value.
//!
//! [`StateSlot`]: crate::desc::StateSlot

use std::ptr;
use kp_sync::atomic::{AtomicI64, AtomicPtr, AtomicUsize, Ordering};

use kp_sync::CachePadded;
use hazard::{Domain, Participant};
use idpool::IdPool;
use queue_traits::{ConcurrentQueue, RegistrationError};

use crate::chaos_hooks::inject;
use crate::config::{Config, PhasePolicy};
use crate::desc::StateSlot;
use crate::hp::handle::WfHpHandle;
use crate::hp::types::{
    reclaim_into_pool, NodeHp, FAST_DEQUEUER, FAST_ENQUEUER, H_NEXT, H_NODE, H_SLOTS, NO_DEQUEUER,
    TOKEN_CONSUMED, TOKEN_RECLAIM_READY,
};
use crate::pool::NodePool;
use crate::queue::FastDeq;
use crate::stats::{StatsSnapshot, StatsTable};

/// The Kogan–Petrank wait-free queue with hazard-pointer reclamation
/// (paper §3.4): both the queue operations *and* memory management are
/// wait-free.
///
/// Same API and [`Config`] variants as [`WfQueue`](crate::WfQueue).
pub struct WfQueueHp<T> {
    pub(crate) head: CachePadded<AtomicPtr<NodeHp<T>>>,
    pub(crate) tail: CachePadded<AtomicPtr<NodeHp<T>>>,
    /// One reusable descriptor slot per virtual thread ID, padded to its
    /// own cache line — same representation as the epoch variant.
    pub(crate) state: Box<[CachePadded<StateSlot>]>,
    phase_counter: CachePadded<AtomicI64>,
    pub(crate) domain: Domain,
    /// Node freelist. Boxed so `ctx` pointers held by retired nodes stay
    /// valid if the queue value moves, and declared *after* `domain` so
    /// it drops later: `Domain::drop` reclaims leftover orphans, and
    /// those reclaims release into this pool.
    pool: Box<NodePool<NodeHp<T>>>,
    pub(crate) ids: IdPool,
    /// `hazard::Participant::record_token` of each slot's current
    /// handle, written at registration, cleared by handle drop or by
    /// the reaper (which quarantines it) — the HP analogue of
    /// `WfQueue::epoch_tokens`. `0` = none.
    pub(crate) hp_tokens: Box<[CachePadded<AtomicUsize>]>,
    pub(crate) config: Config,
    /// One counter block per virtual tid (`crate::stats`).
    pub(crate) stats: StatsTable,
}

// SAFETY: same protocol as the epoch version — all cross-thread traffic
// is atomics except node payloads (written while exclusively owned,
// taken exactly once by the unique dequeue owner under the token gate)
// and `enq_tid` (rewritten only while exclusively owned).
unsafe impl<T: Send> Send for WfQueueHp<T> {}
// SAFETY: as for Send.
unsafe impl<T: Send> Sync for WfQueueHp<T> {}

impl<T: Send> WfQueueHp<T> {
    /// Creates a queue for at most `max_threads` registered handles with
    /// the default (`opt WF (1+2)`) configuration.
    pub fn new(max_threads: usize) -> Self {
        Self::with_config(max_threads, Config::default())
    }

    /// Creates a queue with an explicit algorithm [`Config`].
    ///
    /// # Panics
    ///
    /// Panics if `max_threads` is zero or a chunked policy has a zero
    /// chunk.
    pub fn with_config(max_threads: usize, config: Config) -> Self {
        assert!(max_threads > 0, "max_threads must be positive");
        if let crate::HelpPolicy::Cyclic { chunk } | crate::HelpPolicy::RandomChunk { chunk } =
            config.help
        {
            assert!(chunk > 0, "help chunk must be positive");
        }
        let sentinel = NodeHp::sentinel();
        WfQueueHp {
            head: CachePadded::new(AtomicPtr::new(sentinel)),
            tail: CachePadded::new(AtomicPtr::new(sentinel)),
            state: (0..max_threads)
                .map(|_| CachePadded::new(StateSlot::initial()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            phase_counter: CachePadded::new(AtomicI64::new(0)),
            domain: Domain::new(H_SLOTS),
            pool: Box::new(NodePool::new(config.reuse_nodes)),
            ids: IdPool::new(max_threads),
            hp_tokens: (0..max_threads)
                .map(|_| CachePadded::new(AtomicUsize::new(0)))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            config,
            stats: StatsTable::new(max_threads),
        }
    }

    /// The configuration this queue runs with.
    pub fn config(&self) -> Config {
        self.config
    }

    /// Maximum simultaneously registered handles.
    pub fn max_threads(&self) -> usize {
        self.state.len()
    }

    /// A copy of the helping statistics, summed over every virtual tid.
    /// `cache_overflows` is the shared pool's over-cap frees (counted
    /// pool-side because reclaim callbacks belong to no tid).
    pub fn stats(&self) -> StatsSnapshot {
        let mut snapshot = self.stats.snapshot();
        snapshot.cache_overflows += self.pool.overflows();
        snapshot
    }

    /// The queue's node freelist (dequeue epilogues release through it).
    pub(crate) fn pool(&self) -> &NodePool<NodeHp<T>> {
        &self.pool
    }

    /// Approximate length (O(n); callers must be externally quiesced —
    /// unlike the epoch version there is no pin to keep a traversal
    /// safe, so this walks only when no concurrent dequeuers run;
    /// intended for tests and diagnostics).
    pub fn len_approx_quiescent(&self) -> usize {
        let mut n = 0;
        // SAFETY: quiescence contract — no concurrent retirement.
        unsafe {
            let mut cur = (*self.head.load(Ordering::SeqCst)).next.load(Ordering::SeqCst);
            while !cur.is_null() {
                n += 1;
                cur = (*cur).next.load(Ordering::SeqCst);
            }
        }
        n
    }

    // ------------------------------------------------------------------
    // Auxiliary methods (Figure 2)
    // ------------------------------------------------------------------

    /// `maxPhase()`, L48–57. SeqCst: the Bakery-doorway argument, see
    /// the epoch version.
    pub(crate) fn max_phase(&self, tid: usize) -> i64 {
        self.stats[tid].phase_scans.bump();
        let mut max = -1;
        for slot in self.state.iter() {
            max = max.max(slot.load_phase(Ordering::SeqCst));
        }
        max
    }

    /// Phase selection for thread `tid`'s operation (L62/L99 or the
    /// §3.3 counter).
    pub(crate) fn next_phase(&self, tid: usize) -> i64 {
        match self.config.phase {
            PhasePolicy::MaxScan => self.max_phase(tid) + 1,
            PhasePolicy::AtomicCounter => self.phase_counter.fetch_add(1, Ordering::SeqCst) + 1,
        }
    }

    /// `isStillPending(tid, ph)`, L58–60. SeqCst: gates the helping
    /// obligation (see the epoch version's Lemma 2 note).
    pub(crate) fn is_still_pending(&self, tid: usize, ph: i64) -> bool {
        let (w, phase) = self.state[tid].view(Ordering::SeqCst);
        w.pending() && phase <= ph
    }

    /// One `help()` scan step (L38–45).
    pub(crate) fn help_index(&self, p: &mut Participant<'_>, i: usize, ph: i64, helper: usize) {
        let (w, phase) = self.state[i].view(Ordering::SeqCst);
        if w.pending() && phase <= ph {
            if i != helper {
                self.stats[helper].help_calls.bump();
            }
            if w.enqueue() {
                self.help_enq(p, i, ph, helper);
            } else {
                self.help_deq(p, i, ph, helper);
            }
        }
    }

    /// `help(phase)`, L36–47.
    pub(crate) fn help_all(&self, p: &mut Participant<'_>, ph: i64, helper: usize) {
        for i in 0..self.state.len() {
            self.help_index(p, i, ph, helper);
        }
    }

    /// Hands an unlinked sentinel to reclamation. The disposal runs
    /// through the node's token gate so the dequeue owner's hazard-free
    /// epilogue dereference stays safe (see `hp::types`).
    fn retire_node(&self, p: &mut Participant<'_>, node: *mut NodeHp<T>) {
        let ctx = (&*self.pool as *const NodePool<NodeHp<T>> as *mut NodePool<NodeHp<T>>).cast();
        // SAFETY: `node` was unlinked by the unique head-CAS winner and
        // is retired once; `ctx` outlives every reclaim (the pool Box
        // drops after the domain — field order above).
        unsafe { p.retire_with(node.cast(), ctx, reclaim_into_pool::<T>) };
    }

    // ------------------------------------------------------------------
    // enqueue machinery (Figure 4)
    // ------------------------------------------------------------------

    /// `help_enq`, L67–84.
    pub(crate) fn help_enq(&self, p: &mut Participant<'_>, tid: usize, ph: i64, helper: usize) {
        while self.is_still_pending(tid, ph) {
            let last = p.protect(H_NODE, &*self.tail); // L69
            // SAFETY: protected; a node is retired only after head moves
            // off it, which cannot happen while it is still the tail.
            let next = unsafe { (*last).next.load(Ordering::SeqCst) }; // L70
            if self.tail.load(Ordering::SeqCst) != last {
                continue; // L71 failed
            }
            if next.is_null() {
                // L72–74: append the owner's node. One SeqCst slot read
                // replaces the seed's protect-H_DESC/validate dance —
                // the descriptor is a word, not an object. The node it
                // names is safe to *publish* (never dereferenced here)
                // by the CAS-success argument of the epoch version,
                // which recycling does not weaken: success proves
                // `last.next` was null, and while we hold the H_NODE
                // hazard `last` cannot be reclaimed and reused, so its
                // `next` is write-once during the window — null at CAS
                // time means no append happened since our slot read,
                // hence the owner's operation is still the one we read
                // and its node was never appended, retired, or recycled.
                let (w, phase) = self.state[tid].view(Ordering::SeqCst);
                if w.pending() && phase <= ph && w.enqueue() {
                    inject!("kp_hp.append");
                    let node = w.node_ptr::<NodeHp<T>>();
                    // SAFETY: `last` is protected by H_NODE.
                    let appended = unsafe {
                        (*last).next.compare_exchange(
                            ptr::null_mut(),
                            node,
                            Ordering::SeqCst,
                            Ordering::Relaxed,
                        )
                    }
                    .is_ok();
                    if appended {
                        let me = &self.stats[helper];
                        me.appends_total.bump();
                        if helper != tid {
                            me.helped_appends.bump();
                        }
                        self.help_finish_enq(p); // L75
                        return;
                    }
                }
            } else {
                // L79–80: finish the in-progress enqueue first.
                self.help_finish_enq(p);
            }
        }
    }

    /// `help_finish_enq`, L85–97.
    pub(crate) fn help_finish_enq(&self, p: &mut Participant<'_>) {
        let last = p.protect(H_NODE, &*self.tail); // L86
        // SAFETY: protected as in help_enq.
        let next = unsafe { (*last).next.load(Ordering::SeqCst) }; // L87
        if next.is_null() {
            return;
        }
        // Protect `next` before dereferencing: while `last` is still the
        // tail, head ≤ last < next, so next cannot have been retired.
        p.set(H_NEXT, next);
        if self.tail.load(Ordering::SeqCst) != last {
            p.clear(H_NEXT);
            return;
        }
        // SAFETY: H_NEXT hazard validated above.
        let tid = unsafe { (*next).enq_tid }; // L89
        if tid == FAST_ENQUEUER {
            // Fast-path node: no descriptor to complete (the append CAS
            // both linearized and acknowledged the operation), so step
            // 2 — and the L91 identity check, which could never pass —
            // is skipped. The tail CAS re-validates by itself.
            inject!("kp_hp.swing_tail");
            let _ = self
                .tail
                .compare_exchange(last, next, Ordering::SeqCst, Ordering::Relaxed);
            p.clear(H_NEXT);
            return;
        }
        debug_assert!(tid < self.state.len());
        // L90: SeqCst, not Acquire — same recycling counterexample as
        // the epoch version: an Acquire-stale completed word of an older
        // operation that reused the same node has fields equal to the
        // transition target, and the no-op skip would swing the tail
        // with the current operation still pending.
        let cur = self.state[tid].load_ctrl(Ordering::SeqCst);
        // L91: `last` still tail and the owner's descriptor still refers
        // to the dangling node.
        if self.tail.load(Ordering::SeqCst) == last && cur.node_addr() == next as usize {
            inject!("kp_hp.clear_pending.enq");
            if !self.config.validate_before_cas || cur.pending() {
                // L92–93: step 2 (version-tagged in-place transition).
                self.state[tid].cas_ctrl(cur, next as usize, false, true);
            }
            inject!("kp_hp.swing_tail");
            // L94: step 3.
            let _ = self
                .tail
                .compare_exchange(last, next, Ordering::SeqCst, Ordering::Relaxed);
        }
        p.clear(H_NEXT);
    }

    // ------------------------------------------------------------------
    // dequeue machinery (Figure 6)
    // ------------------------------------------------------------------

    /// `help_deq`, L109–140.
    pub(crate) fn help_deq(&self, p: &mut Participant<'_>, tid: usize, ph: i64, helper: usize) {
        while self.is_still_pending(tid, ph) {
            let first = p.protect(H_NODE, &*self.head); // L111
            let last = self.tail.load(Ordering::SeqCst); // L112
            // SAFETY: `first` protected; sentinels are retired only
            // after head moves off them, which protect() rules out.
            let next = unsafe { (*first).next.load(Ordering::SeqCst) }; // L113
            if self.head.load(Ordering::SeqCst) != first {
                continue; // L114
            }
            if first == last {
                // L115: queue might be empty.
                if next.is_null() {
                    // L116–121: record the empty result. L117 SeqCst:
                    // the doorway guard (see the epoch version).
                    let (cur, phase) = self.state[tid].view(Ordering::SeqCst);
                    if self.tail.load(Ordering::SeqCst) == last && cur.pending() && phase <= ph {
                        inject!("kp_hp.clear_pending.deq_empty");
                        self.state[tid].cas_ctrl(cur, 0, false, false);
                    }
                } else {
                    // L122–123.
                    self.help_finish_enq(p);
                }
            } else {
                // L125–137: queue is not empty. L126 SeqCst as L117/L146.
                let (cur, phase) = self.state[tid].view(Ordering::SeqCst);
                if !(cur.pending() && phase <= ph) {
                    break; // L128
                }
                // L129–134: stage 0 — bind the current sentinel.
                if self.head.load(Ordering::SeqCst) == first
                    && cur.node_addr() != first as usize
                {
                    inject!("kp_hp.bind_sentinel");
                    if !self.state[tid].cas_ctrl(cur, first as usize, true, false) {
                        continue; // L132: descriptor changed; restart
                    }
                }
                inject!("kp_hp.lock_sentinel");
                // L135: step 1 — lock the sentinel (linearization).
                // SAFETY: `first` still protected by H_NODE.
                let locked = unsafe {
                    (*first).deq_tid.compare_exchange(
                        NO_DEQUEUER,
                        tid as isize,
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                    )
                }
                .is_ok();
                if locked {
                    let me = &self.stats[helper];
                    me.locks_total.bump();
                    if helper != tid {
                        me.helped_locks.bump();
                    }
                }
                // L136.
                self.help_finish_deq(p);
            }
        }
    }

    /// `help_finish_deq`, L141–153, with the node hand-off that replaces
    /// the seed's §3.4 value courier: step 2 completes the owner's word
    /// pointing at `next` — the *value node* — instead of couriering a
    /// copy of the value through a descriptor. The owner's epilogue
    /// takes the value out of that node under the token gate.
    pub(crate) fn help_finish_deq(&self, p: &mut Participant<'_>) {
        let first = p.protect(H_NODE, &*self.head); // L142
        // SAFETY: protected.
        let next = unsafe { (*first).next.load(Ordering::SeqCst) }; // L143
        // Protect `next` before the head swing: while `first` is still
        // the head, `next` cannot have been retired (head must pass
        // `first` before it can pass `next`).
        p.set(H_NEXT, next);
        if self.head.load(Ordering::SeqCst) != first {
            p.clear(H_NEXT);
            return;
        }
        // SAFETY: `first` protected by H_NODE.
        let tid = unsafe { (*first).deq_tid.load(Ordering::SeqCst) }; // L144
        if tid == FAST_DEQUEUER {
            // Fast-locked sentinel: the `deqTid` CAS both linearized
            // the dequeue and made the fast dequeuer the unique value
            // taker (it reads through its own hazard, no courier), so
            // step 2 is skipped. Step 3 and winner-retires unchanged.
            inject!("kp_hp.swing_head");
            if self.head.load(Ordering::SeqCst) == first
                && !next.is_null()
                && self
                    .head
                    .compare_exchange(first, next, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
            {
                self.retire_node(p, first);
            }
            p.clear(H_NEXT);
            return;
        }
        if tid != NO_DEQUEUER {
            // A locked sentinel was observed: the window between dequeue
            // steps 1 and 2.
            inject!("kp_hp.clear_pending.deq");
            let tid = tid as usize;
            // L146: SeqCst — the L90 recycling argument, mirrored.
            let cur = self.state[tid].load_ctrl(Ordering::SeqCst);
            if self.head.load(Ordering::SeqCst) == first && !next.is_null() {
                // L147. All step-2 racers compute the same `next`: they
                // all validated `first` as head while holding a hazard
                // on it, and a hazarded node's `next` is write-once.
                if !self.config.validate_before_cas || cur.pending() {
                    // L148–149: step 2 — acknowledge linearization and
                    // hand the owner its value node.
                    self.state[tid].cas_ctrl(cur, next as usize, false, false);
                }
                inject!("kp_hp.swing_head");
                // L150: step 3 — fix head. The winner retires the
                // removed sentinel (§3.4's "RetireNode at the end of
                // help_deq" point).
                if self
                    .head
                    .compare_exchange(first, next, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
                {
                    self.retire_node(p, first);
                }
            }
        }
        p.clear(H_NEXT);
    }

    // ------------------------------------------------------------------
    // abandoned-handle reaping (DESIGN.md §13)
    // ------------------------------------------------------------------

    /// Executes a reap of `victim`'s slot; the HP mirror of
    /// [`WfQueue::reap_slot`](crate::WfQueue) — see there for the full
    /// sequence (adopt → drive past the L91 wedge → `try_retire`
    /// election → winner-only destructive steps → `finish_reap`). The
    /// two HP-specific differences:
    ///
    /// * the claim of an adopted dequeue's result reads the *value
    ///   node* the step-2 CAS handed the victim and completes its
    ///   token gate (`TOKEN_CONSUMED`), exactly as the owner's
    ///   epilogue would. Liveness: the word went pending→completed
    ///   during this reap (we saw it pending at entry), so nobody has
    ///   set CONSUMED yet — the gate holds the node allocated however
    ///   long ago its predecessor's retirement was scanned.
    /// * quarantining goes through [`Domain::quarantine`]: the
    ///   victim's leaked hazard record gets its slots nulled and is
    ///   parked for adoption, so its stale hazards stop excluding
    ///   nodes from reclamation. No pinned-check is needed — a record
    ///   is per-handle, not per-OS-thread, so a revoked lease means no
    ///   legitimate user remains.
    ///
    /// [`Domain::quarantine`]: hazard::Domain::quarantine
    pub(crate) fn reap_slot(
        &self,
        p: &mut Participant<'_>,
        victim: usize,
        generation: u64,
        helper: usize,
    ) {
        inject!("kp_hp.reap.adopt");
        let (w0, phase0) = self.state[victim].view(Ordering::SeqCst);
        let was_pending = w0.pending();
        let me = &self.stats[helper];
        if was_pending {
            me.reap_adoptions.bump();
            if w0.enqueue() {
                self.help_enq(p, victim, phase0, helper);
            } else {
                self.help_deq(p, victim, phase0, helper);
            }
        }
        // The L91 wedge (see `WfHpHandle::drop`): tail past any node of
        // the victim's before the descriptor may be blanked.
        self.help_finish_enq(p);
        self.help_finish_deq(p);
        inject!("kp_hp.reap.retire");
        let w1 = self.state[victim].load_ctrl(Ordering::SeqCst);
        if w1.pending() {
            // Lease-contract violation (the "dead" owner republished);
            // leave the slot wedged in `Reaping` — see the epoch twin.
            debug_assert!(false, "victim republished after lease revocation");
            return;
        }
        if self.state[victim].try_retire(w1) {
            // Election won: we alone own the destructive steps.
            if was_pending && !w1.enqueue() && !w1.node_is_null() {
                // Adopted dequeue completed non-empty during this reap;
                // nobody will ever run the owner's epilogue. Claim and
                // discard the value and complete the token gate.
                let node = w1.node_ptr::<NodeHp<T>>();
                // SAFETY (liveness): pending-at-entry means the step-2
                // CAS handed `node` over during this reap, so its
                // CONSUMED token — set only by the completed word's
                // unique owner — is still clear and the gate keeps the
                // node allocated. SAFETY (uniqueness): the try_retire
                // election makes us that unique owner.
                unsafe {
                    let value = (*(*node).value.get()).take();
                    debug_assert!(value.is_some(), "reaped dequeue result already taken");
                    drop(value);
                    let prev = (*node).tokens.fetch_or(TOKEN_CONSUMED, Ordering::AcqRel);
                    if prev & TOKEN_RECLAIM_READY != 0 {
                        // SAFETY: both tokens observed; disposal ours.
                        self.pool().release(node);
                    }
                }
            }
            // The swap prevents a later reap of this slot's next lease
            // from acting on a stale token.
            let token = self.hp_tokens[victim].swap(0, Ordering::SeqCst);
            if token != 0 {
                // SAFETY: the lease revocation poisons the handle (its
                // next op panics in `op_prologue`), and a reaped
                // handle's Drop leaks its record instead of touching
                // it, so no legitimate user of the record remains.
                if unsafe { self.domain.quarantine(token) } {
                    me.quarantines.bump();
                }
            }
        }
        inject!("kp_hp.reap.finish");
        if self.ids.finish_reap(victim, generation) {
            me.reaps.bump();
        }
    }

    // ------------------------------------------------------------------
    // fast path (bounded lock-free MS loop; see the epoch version and
    // DESIGN.md §12 — only the hazard discipline differs here)
    // ------------------------------------------------------------------

    /// Bounded lock-free enqueue attempt; the HP mirror of
    /// `WfQueue::try_fast_enqueue`. `node` is private to the caller
    /// with `enq_tid == FAST_ENQUEUER`; returns `true` once the append
    /// CAS (the shared L74 linearization point) succeeds, `false` on
    /// budget exhaustion with `node` still private.
    /// `inflight` is the caller's panic-recovery tracker for `node`; it
    /// is cleared here, by the success CAS itself, so an unwind from
    /// the post-publication injection site cannot double-free a node
    /// the queue now owns. `tid` is the caller's, whose counter block
    /// the attempt writes.
    pub(crate) fn try_fast_enqueue(
        &self,
        p: &mut Participant<'_>,
        node: *mut NodeHp<T>,
        budget: usize,
        inflight: &mut *mut NodeHp<T>,
        tid: usize,
    ) -> bool {
        // SAFETY: the caller owns `node` exclusively until the append
        // CAS publishes it.
        debug_assert_eq!(unsafe { &*node }.enq_tid, FAST_ENQUEUER);
        for _ in 0..budget {
            inject!("kp_hp.fast.enq");
            let last = p.protect(H_NODE, &*self.tail);
            // SAFETY: protected — as in `help_enq`, a node still
            // reachable as tail cannot be retired or recycled while
            // H_NODE covers it, so its `next` is write-once during the
            // window below.
            let next = unsafe { (*last).next.load(Ordering::SeqCst) };
            if self.tail.load(Ordering::SeqCst) != last {
                continue;
            }
            if next.is_null() {
                // SAFETY: `last` is protected by H_NODE.
                if unsafe {
                    (*last).next.compare_exchange(
                        ptr::null_mut(),
                        node,
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                    )
                }
                .is_ok()
                {
                    // Linearized (the shared L74 append point); the
                    // node is public — stop tracking it for recovery.
                    *inflight = ptr::null_mut();
                    self.stats[tid].appends_total.bump();
                    inject!("kp_hp.fast.swing_tail");
                    // Step 3, best effort; helpers' help_finish_enq
                    // (FAST_ENQUEUER branch) also swings.
                    let _ = self.tail.compare_exchange(
                        last,
                        node,
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                    );
                    return true;
                }
            } else {
                // Tail lags behind a dangling node: finish that enqueue
                // first (L79–80), preserving a slow append's
                // step-2-before-step-3 order.
                self.help_finish_enq(p);
            }
        }
        false
    }

    /// Test infrastructure — the HP mirror of `WfQueue::append_no_swing`
    /// (see the `#[doc(hidden)]` `WfHpHandle::fast_append_unswung`):
    /// the fast-path append CAS without the step-3 tail swing, the
    /// shared state a sudden death at `kp_hp.fast.swing_tail` leaves
    /// behind. The value is linearized; the lagging tail persists until
    /// someone's `help_finish_enq` fixes it.
    pub(crate) fn append_no_swing(
        &self,
        p: &mut Participant<'_>,
        node: *mut NodeHp<T>,
        tid: usize,
    ) {
        // SAFETY: the caller owns `node` exclusively until the append
        // CAS publishes it.
        debug_assert_eq!(unsafe { &*node }.enq_tid, FAST_ENQUEUER);
        loop {
            let last = p.protect(H_NODE, &*self.tail);
            // SAFETY: protected — as in `try_fast_enqueue`.
            let next = unsafe { (*last).next.load(Ordering::SeqCst) };
            if self.tail.load(Ordering::SeqCst) != last {
                continue;
            }
            if next.is_null() {
                // SAFETY: `last` is protected by H_NODE.
                if unsafe {
                    (*last).next.compare_exchange(
                        ptr::null_mut(),
                        node,
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                    )
                }
                .is_ok()
                {
                    self.stats[tid].appends_total.bump();
                    p.clear(H_NODE);
                    return;
                }
            } else {
                self.help_finish_enq(p);
            }
        }
    }

    /// Bounded lock-free dequeue attempt; the HP mirror of
    /// `WfQueue::try_fast_dequeue`. Locks the sentinel's `deqTid` with
    /// `FAST_DEQUEUER` (the shared L135 linearization point); the value
    /// is taken under the H_NEXT hazard and the value node's token gate
    /// is half-completed here (`TOKEN_CONSUMED`), exactly as the slow
    /// path's owner epilogue would.
    pub(crate) fn try_fast_dequeue(
        &self,
        p: &mut Participant<'_>,
        budget: usize,
        tid: usize,
    ) -> FastDeq<T> {
        for _ in 0..budget {
            inject!("kp_hp.fast.deq");
            let first = p.protect(H_NODE, &*self.head);
            let last = self.tail.load(Ordering::SeqCst);
            // SAFETY: `first` protected; sentinels are retired only
            // after head moves off them, which protect() rules out.
            let next = unsafe { (*first).next.load(Ordering::SeqCst) };
            // Protect `next` before any dereference: while `first` is
            // still the head, `next` cannot have been retired.
            p.set(H_NEXT, next);
            if self.head.load(Ordering::SeqCst) != first {
                p.clear(H_NEXT);
                continue;
            }
            if first == last {
                p.clear(H_NEXT);
                if next.is_null() {
                    // Empty: linearizes at the `next` load above, head-
                    // validated (the L115–120 shape, no descriptor).
                    self.stats[tid].empty_dequeues.bump();
                    return FastDeq::Done(None);
                }
                // An enqueue is mid-flight; help it land (L122–123).
                self.help_finish_enq(p);
                continue;
            }
            // SAFETY: `first` is protected by H_NODE.
            let locked = unsafe {
                (*first).deq_tid.compare_exchange(
                    NO_DEQUEUER,
                    FAST_DEQUEUER,
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                )
            }
            .is_ok();
            if locked {
                // Step 1 won: the dequeue is linearized and we are the
                // unique taker of the successor's value.
                self.stats[tid].locks_total.bump();
                // SAFETY: `next` is covered by H_NEXT, validated while
                // `first` was still the head; the lock's uniqueness
                // gives the value take exclusivity (a node's value is
                // taken exactly once, by whoever locks its
                // predecessor).
                let taken = unsafe { (*(*next).value.get()).take() };
                // Checked in release builds on purpose: an invariant
                // break here (e.g. a reap-path double-take) must panic,
                // never become UB. The branch is perfectly predicted.
                let value =
                    taken.expect("fast-locked sentinel's successor must hold a value");
                // Complete our half of the value node's token gate:
                // when `next` (now the sentinel) is eventually retired,
                // reclamation waits for this CONSUMED bit — the same
                // contract the slow owner's epilogue fulfils.
                // SAFETY: `next` still covered by H_NEXT.
                let prev =
                    unsafe { (*next).tokens.fetch_or(TOKEN_CONSUMED, Ordering::AcqRel) };
                if prev & TOKEN_RECLAIM_READY != 0 {
                    // Unreachable while our hazard stands (the scan
                    // never clears a hazarded node), but the gate's
                    // contract is "whoever observes both bits
                    // releases" — keep it total.
                    // SAFETY: both tokens observed; disposal is ours.
                    unsafe { self.pool().release(next) };
                }
                inject!("kp_hp.fast.swing_head");
                // Step 3, best effort; the winner retires the unlinked
                // sentinel (helpers' FAST_DEQUEUER branch mirrors
                // this).
                if self
                    .head
                    .compare_exchange(first, next, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
                {
                    self.retire_node(p, first);
                }
                p.clear(H_NEXT);
                return FastDeq::Done(Some(value));
            }
            // Lost the lock to a concurrent dequeue (fast or slow):
            // complete it so head advances, then retry.
            p.clear(H_NEXT);
            self.help_finish_deq(p);
        }
        FastDeq::Exhausted
    }
}

impl<T: Send> ConcurrentQueue<T> for WfQueueHp<T> {
    type Handle<'a>
        = WfHpHandle<'a, T>
    where
        T: 'a;

    fn register(&self) -> Result<Self::Handle<'_>, RegistrationError> {
        match self.ids.acquire() {
            Some(id) => {
                let participant = self.domain.enter();
                // Published before the handle can operate: if this
                // handle dies, a reaper quarantines the record through
                // this token so its hazards stop blocking reclamation.
                self.hp_tokens[id.id()]
                    .store(participant.record_token(), Ordering::SeqCst);
                Ok(WfHpHandle::new(self, id, participant))
            }
            None => Err(RegistrationError {
                capacity: self.max_threads(),
            }),
        }
    }

    fn thread_capacity(&self) -> usize {
        self.max_threads()
    }

    /// Same counter-derived gauge as the epoch engine (see
    /// `WfQueue::depth_hint`).
    fn depth_hint(&self) -> Option<usize> {
        Some(self.stats.depth())
    }

    fn drained_hint(&self) -> Option<u64> {
        Some(self.stats.drained())
    }

    /// The shared pool's over-cap frees (the HP engine has no retire
    /// cache to overflow).
    fn pressure_hint(&self) -> u64 {
        self.pool.overflows()
    }
}

impl<T> Drop for WfQueueHp<T> {
    fn drop(&mut self) {
        // Exclusive access. Descriptors are in-place slot words —
        // nothing to free. Nodes still in the list drop normally,
        // values included (value ownership is an `Option` in the node
        // now; consumed ones are `None`).
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            // SAFETY: exclusive access; list nodes are owned by the list
            // (retired nodes are owned by the hazard domain, freelist
            // nodes by the pool — both dropped after this body, in that
            // order).
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next.load(Ordering::Relaxed);
        }
    }
}

impl<T: Send> std::fmt::Debug for WfQueueHp<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WfQueueHp")
            .field("max_threads", &self.max_threads())
            .field("config", &self.config)
            .finish()
    }
}
