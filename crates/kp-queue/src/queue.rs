//! The wait-free queue proper: shared structure and helping machinery
//! (paper Figures 1, 2, 4 and 6), written once for both reclamation
//! backends (`crate::reclaim`).
//!
//! Line references in comments (`L62`, `L74`, …) are to the paper's Java
//! listings, so the transcription can be audited side by side.
//!
//! # Descriptor representation
//!
//! Unlike the paper's Java listing (and this crate's seed), `state[tid]`
//! is not a pointer to a heap-allocated `OpDesc` but an in-place
//! [`StateSlot`]: a packed control word plus a phase word, version-
//! tagged so helper CASes holding stale views fail (see `crate::desc`
//! for the packing and its invariants). Each slot is `CachePadded` so
//! adjacent tids' owner stores and helper scans do not false-share.
//! Every descriptor "allocation" and "retirement" of the seed becomes a
//! store or CAS on the slot — the steady-state hot path performs zero
//! heap allocations (nodes are recycled separately, see
//! `crate::recycle` and `crate::pool`).
//!
//! # Node protection
//!
//! Every shared node dereference goes through the backend: a node read
//! from `head`/`tail` passes `Backend::protect`, its successor
//! `Backend::protect_next`. A completed dequeue word names the *value
//! node* (the new sentinel), which its owner hands to
//! `Backend::consume` after taking the value.
//!
//! # Memory-ordering audit
//!
//! The hot-path orderings were audited for this representation; the
//! outcome (and why most loads *stay* SeqCst) is documented at each
//! site and summarised in the crate docs. The short version: loads that
//! gate helping decisions or descriptor transitions must not observe
//! stale completed words — with node recycling, a stale completed word
//! can carry the *same fields* as the current pending one and trigger
//! the no-op skip, so those reads stay SeqCst; only diagnostics
//! (`len_approx`/`is_empty`) and owner-private epilogues relax to
//! Acquire.

use std::ptr;

use kp_sync::atomic::{AtomicI64, AtomicPtr, AtomicUsize, Ordering};
use kp_sync::CachePadded;

use idpool::IdPool;
use queue_traits::{ConcurrentQueue, RegistrationError};

use crate::chaos_hooks::inject;
use crate::config::{Config, PhasePolicy};
use crate::desc::StateSlot;
use crate::handle::KpHandle;
use crate::node::{Node, FAST_DEQUEUER, FAST_ENQUEUER, NO_DEQUEUER};
use crate::pool::NodePool;
use crate::reclaim::{Reclaim, H_NEXT, H_NODE};
use crate::stats::{StatsSnapshot, StatsTable};

/// The Kogan–Petrank wait-free MPMC FIFO queue over reclamation backend
/// `R` — used as [`WfQueue`](crate::WfQueue) (epochs) or
/// [`WfQueueHp`](crate::WfQueueHp) (hazard pointers).
///
/// See the [crate documentation](crate) for the algorithm overview and
/// the paper-variant table. Construct with [`new`](Self::new) (default
/// `opt WF (1+2)` configuration) or [`with_config`](Self::with_config),
/// then call [`register`](ConcurrentQueue::register) from each
/// participating thread.
pub struct KpQueue<T, R: Reclaim> {
    pub(crate) head: CachePadded<AtomicPtr<Node<T>>>,
    pub(crate) tail: CachePadded<AtomicPtr<Node<T>>>,
    /// One reusable descriptor slot per virtual thread ID (`state` in
    /// Figure 1), padded to its own cache line.
    pub(crate) state: Box<[CachePadded<StateSlot>]>,
    /// Monotone phase source under `PhasePolicy::AtomicCounter` (§3.3).
    phase_counter: CachePadded<AtomicI64>,
    /// Virtual thread IDs (§3.3 long-lived renaming).
    pub(crate) ids: IdPool,
    /// Per-tid token of the handle's reclamation participation (epoch
    /// participant token or hazard record token, `0` = none), which a
    /// reap uses to quarantine a dead owner's participation (DESIGN.md
    /// §13.4). When it is published and retracted is the backend's
    /// business (`Backend::enter`/`announce`/`exiting`/`exit`).
    pub(crate) tokens: Box<[CachePadded<AtomicUsize>]>,
    /// The backend's per-queue state. Declared before `pool` so it drops
    /// first: a hazard domain's teardown reclaims leftover retirees into
    /// the pool.
    reclaim: R::QueueState,
    /// Recycled nodes for any handle's enqueues (`crate::pool`). Boxed
    /// so the address hazard retirements carry stays valid if the queue
    /// value moves.
    pub(crate) pool: Box<CachePadded<NodePool<Node<T>>>>,
    pub(crate) config: Config,
    /// One counter block per virtual tid (`crate::stats`).
    pub(crate) stats: StatsTable,
}

// SAFETY: all cross-thread traffic goes through atomics. The only
// non-atomic shared data is each node's payload (written before the
// node is published and taken exactly once by the unique owner of the
// dequeue that removed it — see `KpHandle::read_deq_result`) and each
// node's `enq_tid` (rewritten only while the node is exclusively owned,
// before republication — see `KpHandle::alloc_node`).
unsafe impl<T: Send, R: Reclaim> Send for KpQueue<T, R> {}
// SAFETY: as for Send.
unsafe impl<T: Send, R: Reclaim> Sync for KpQueue<T, R> {}

impl<T: Send, R: Reclaim> KpQueue<T, R> {
    /// Creates a queue for at most `max_threads` simultaneously
    /// registered handles, with the default (`opt WF (1+2)`) config.
    ///
    /// # Panics
    ///
    /// Panics if `max_threads` is zero.
    pub fn new(max_threads: usize) -> Self {
        Self::with_config(max_threads, Config::default())
    }

    /// Creates a queue with an explicit algorithm [`Config`].
    ///
    /// # Panics
    ///
    /// Panics if `max_threads` is zero or a chunked help policy has a
    /// zero chunk.
    pub fn with_config(max_threads: usize, config: Config) -> Self {
        assert!(max_threads > 0, "max_threads must be positive");
        if let crate::HelpPolicy::Cyclic { chunk } | crate::HelpPolicy::RandomChunk { chunk } =
            config.help
        {
            assert!(chunk > 0, "help chunk must be positive");
        }
        // Queue constructor, L27–35.
        let sentinel = Box::into_raw(Box::new(Node::sentinel()));
        KpQueue {
            head: CachePadded::new(AtomicPtr::new(sentinel)),
            tail: CachePadded::new(AtomicPtr::new(sentinel)),
            state: (0..max_threads)
                .map(|_| CachePadded::new(StateSlot::initial()))
                .collect(),
            phase_counter: CachePadded::new(AtomicI64::new(0)),
            ids: IdPool::new(max_threads),
            tokens: (0..max_threads)
                .map(|_| CachePadded::new(AtomicUsize::new(0)))
                .collect(),
            reclaim: R::queue_state(),
            pool: Box::new(CachePadded::new(NodePool::new())),
            config,
            stats: StatsTable::new(max_threads),
        }
    }

    /// The configuration this queue runs with.
    pub fn config(&self) -> Config {
        self.config
    }

    /// Maximum number of simultaneously registered handles
    /// (`NUM_THRDS` in the paper).
    pub fn max_threads(&self) -> usize {
        self.state.len()
    }

    /// A copy of the queue's helping statistics, summed over every
    /// virtual tid. `cache_overflows` includes the nodes the shared pool
    /// refused.
    pub fn stats(&self) -> StatsSnapshot {
        let mut snapshot = self.stats.snapshot();
        snapshot.cache_overflows += self.pool.overflows();
        snapshot
    }

    /// The sentinel's successor (null when the queue is empty).
    ///
    /// Ordering relaxation: Acquire, not SeqCst. The diagnostics built
    /// on it participate in no helping decision and no proof obligation
    /// — all they need is that a non-null `next` dereferences a fully
    /// initialised node, which Acquire (paired with the release append
    /// CAS) provides. Callers keep the walk safe: an epoch pin, or
    /// quiescence.
    pub(crate) fn head_next(&self) -> *mut Node<T> {
        // ord(stats): advisory head and head.next reads under
        // len_approx/is_empty (epoch pin) or len_approx_quiescent (quiescence);
        // Acquire (release half of the append CAS) suffices to dereference
        // initialised nodes
        let head = self.head.load(Ordering::Acquire);
        // SAFETY: head is never null; the caller keeps it live.
        // ord(stats): advisory head and head.next reads under
        // len_approx/is_empty (epoch pin) or len_approx_quiescent (quiescence);
        // Acquire (release half of the append CAS) suffices to dereference
        // initialised nodes
        unsafe { (*head).next.load(Ordering::Acquire) }
    }

    /// Number of nodes after the sentinel (O(n) walk; same caller
    /// contract as [`head_next`](Self::head_next)).
    pub(crate) fn count_from_head(&self) -> usize {
        let mut n = 0;
        let mut cur = self.head_next();
        while !cur.is_null() {
            n += 1;
            // SAFETY: a non-null `next` reaches an initialised node the
            // caller keeps live — same argument as for `head`.
            // ord(stats): advisory O(n) walk; same argument as head_next
            cur = unsafe { (*cur).next.load(Ordering::Acquire) };
        }
        n
    }

    // ------------------------------------------------------------------
    // Auxiliary methods (Figure 2)
    // ------------------------------------------------------------------

    /// `maxPhase()`, L48–57.
    ///
    /// The phase loads stay SeqCst: this scan is the doorway of the
    /// Bakery-style phase protocol. Its wait-freedom argument (Lemma 1)
    /// needs every phase chosen before our scan started to be visible
    /// to the scan, which the SC total order gives and Acquire would
    /// not (an Acquire load may return any value not older than the
    /// last one *this* thread saw).
    pub(crate) fn max_phase(&self, tid: usize) -> i64 {
        self.stats[tid].phase_scans.bump();
        let mut max = -1;
        for slot in self.state.iter() {
            max = max.max(slot.load_phase(Ordering::SeqCst));
        }
        max
    }

    /// Phase selection for thread `tid`'s operation: `maxPhase() + 1`
    /// (L62/L99) or the §3.3 atomic counter.
    pub(crate) fn next_phase(&self, tid: usize) -> i64 {
        match self.config.phase {
            PhasePolicy::MaxScan => self.max_phase(tid) + 1,
            // ord(doorway, sc=doorway): monotone phase ticket (SS3.3
            // AtomicCounter policy)
            PhasePolicy::AtomicCounter => self.phase_counter.fetch_add(1, Ordering::SeqCst) + 1,
        }
    }

    /// `isStillPending(tid, ph)`, L58–60.
    ///
    /// SeqCst on the ctrl load: this read gates the helping obligation.
    /// Under Acquire a helper could keep reading a stale pre-publish
    /// word for an operation that is pending in the SC order and
    /// decline to help it, undermining the bounded-helping argument
    /// (Lemma 2's "every pending op with a small enough phase gets
    /// helped").
    pub(crate) fn is_still_pending(&self, tid: usize, ph: i64) -> bool {
        let (w, phase) = self.state[tid].view(Ordering::SeqCst);
        w.pending() && phase <= ph
    }

    /// One iteration of the `help(phase)` scan body (L38–45), used by
    /// every §3.3 policy.
    ///
    /// The ctrl load is SeqCst for the same helping-obligation reason
    /// as [`is_still_pending`](Self::is_still_pending).
    pub(crate) fn help_index(
        &self,
        local: &mut R::HandleState<'_, T>,
        guard: &R::Guard,
        i: usize,
        ph: i64,
        helper: usize,
    ) {
        let (w, phase) = self.state[i].view(Ordering::SeqCst);
        if w.pending() && phase <= ph {
            if i != helper {
                self.stats[helper].help_calls.bump();
            }
            if w.enqueue() {
                self.help_enq(local, i, ph, helper);
            } else {
                self.help_deq(local, guard, i, ph, helper);
            }
        }
    }

    // ------------------------------------------------------------------
    // enqueue machinery (Figure 4)
    // ------------------------------------------------------------------

    /// `help_enq(tid, phase)`, L67–84: drive thread `tid`'s pending
    /// enqueue until it is linearized (step 1 of the scheme: append the
    /// node at the end of the list).
    pub(crate) fn help_enq(
        &self,
        local: &R::HandleState<'_, T>,
        tid: usize,
        ph: i64,
        helper: usize,
    ) {
        while self.is_still_pending(tid, ph) {
            let last = R::protect(local, H_NODE, &self.tail); // L69
            // SAFETY: tail is never null and `last` is protected; a node
            // is retired only after head moves off it, which cannot
            // happen while it is still the tail (and recycled nodes obey
            // the same protection as freed ones).
            // ord(helper-guard, sc=help): protected tail's next read (L70)
            let next = unsafe { (*last).next.load(Ordering::SeqCst) }; // L70
            // ord(helper-guard, sc=help): tail re-validation before the append
            // (L71)
            if last != self.tail.load(Ordering::SeqCst) {
                continue; // L71 failed
            }
            if next.is_null() {
                // L72: enqueue can be applied.
                // L73: re-check, then read the node from the owner's
                // descriptor. Reading the slot once and using its own
                // fields is equivalent to the paper's repeated
                // `state.get(tid)` reads: if the descriptor changed,
                // the owner's node was already appended, which makes
                // `last.next` non-null and the CAS below fail (the
                // dangling-node invariant, §3.1). Node recycling does
                // not weaken this: `last` is protected, so its `next` is
                // write-once during the window, and CAS success proves
                // `last.next` was still null, i.e. the node we read was
                // never appended — the owner's operation cannot have
                // completed and the node cannot have been retired, let
                // alone reused. The node is only published here, never
                // dereferenced. SeqCst keeps the read coherent with the
                // pending check inside `is_still_pending` above.
                let (w, phase) = self.state[tid].view(Ordering::SeqCst);
                if w.pending() && phase <= ph && w.enqueue() {
                    inject!(R::SITES.append);
                    let node = w.node_ptr::<Node<T>>();
                    // SAFETY: `last` is protected (see above).
                    let appended = unsafe {
                        // ord(linearization, sc=append, steps=Append): the
                        // append CAS (L74)
                        (*last).next.compare_exchange(
                            ptr::null_mut(),
                            node,
                            Ordering::SeqCst,
                            Ordering::Relaxed,
                        )
                    }
                    .is_ok();
                    if appended {
                        // L74 succeeded: the operation is linearized.
                        let me = &self.stats[helper];
                        me.appends_total.bump();
                        if helper != tid {
                            me.helped_appends.bump();
                        }
                        self.help_finish_enq(local); // L75
                        return;
                    }
                }
            } else {
                // L79: some enqueue is in progress; finish it first.
                self.help_finish_enq(local); // L80
            }
        }
    }

    /// `help_finish_enq()`, L85–97: steps 2 and 3 of the scheme — clear
    /// the owner's `pending` flag, then swing `tail` to the appended
    /// node.
    pub(crate) fn help_finish_enq(&self, local: &R::HandleState<'_, T>) {
        let last = R::protect(local, H_NODE, &self.tail); // L86
        // SAFETY: as in `help_enq`.
        // ord(helper-guard, sc=help): appended-node read (L87)
        let next = unsafe { (*last).next.load(Ordering::SeqCst) }; // L87
        if next.is_null() {
            return;
        }
        // Protect `next` before dereferencing: while `last` is still the
        // tail, head ≤ last < next, so next cannot have been retired.
        if !R::protect_next(local, next, &self.tail, last) {
            R::clear(local, H_NEXT);
            return;
        }
        // SAFETY: `next` protected above.
        let tid = unsafe { (*next).enq_tid }; // L89: owner of the dangling node
        if tid == FAST_ENQUEUER {
            // Fast-path node: there is no descriptor to complete (the
            // append CAS both linearized and acknowledged the
            // operation), so step 2 — and the L91 descriptor identity
            // check, which could never pass — is skipped. The tail CAS
            // from `last` re-validates by itself: if tail already
            // advanced, it fails harmlessly.
            inject!(R::SITES.swing_tail);
            let _ = self
                .tail
                // ord(helper-guard, sc=swing): FAST_ENQUEUER branch:
                // unconditional tail swing past a fast-appended node (no
                // descriptor to ack; model FastFixTail)
                .compare_exchange(last, next, Ordering::SeqCst, Ordering::Relaxed);
            R::clear(local, H_NEXT);
            return;
        }
        debug_assert!(
            tid < self.state.len(),
            "dangling node must carry a valid enqueuer tid"
        );
        // L90. SeqCst is required here, not Acquire: with node
        // recycling an Acquire load may return an *old* completed word
        // of a previous operation that reused the same node — its
        // fields ({pending: false, enqueue, node == next}) equal the
        // transition target, so `cas_ctrl`'s no-op skip would report
        // step 2 done and we would swing the tail while the real
        // current word is still pending, wedging the owner. SeqCst
        // excludes this: this load is SC-after our `next` read, which
        // is SC-after the append CAS, which is SC-after the owner's
        // publish of the *current* word.
        let cur = self.state[tid].load_ctrl(Ordering::SeqCst);
        // L91: `last` still tail and the owner's descriptor still
        // refers to the dangling node (guards against a racing
        // help_finish_enq having already completed a *different*
        // operation of the same thread).
        // ord(helper-guard, sc=help): tail re-validation (L91)
        if self.tail.load(Ordering::SeqCst) == last && cur.node_addr() == next as usize {
            inject!(R::SITES.clear_pending_enq);
            // §3.3 enhancement: skip the descriptor CAS when the flag
            // is already off (a racing helper beat us to step 2).
            if !self.config.validate_before_cas || cur.pending() {
                // L92–93: step 2 — acknowledge linearization (a
                // version-tagged in-place transition; phase kept).
                self.state[tid].cas_ctrl(cur, next as usize, false, true);
            }
            inject!(R::SITES.swing_tail);
            // L94: step 3 — fix tail. At most one of the racing CASes
            // succeeds; the others observe tail already advanced.
            let _ = self
                .tail
                // ord(helper-guard, sc=swing): tail swing (L94, model FixTail)
                .compare_exchange(last, next, Ordering::SeqCst, Ordering::Relaxed);
        }
        R::clear(local, H_NEXT);
    }

    // ------------------------------------------------------------------
    // dequeue machinery (Figure 6)
    // ------------------------------------------------------------------

    /// `help_deq(tid, phase)`, L109–140: drive thread `tid`'s pending
    /// dequeue until it is linearized (either the sentinel is locked
    /// with `tid`, or the queue is observed empty).
    pub(crate) fn help_deq(
        &self,
        local: &mut R::HandleState<'_, T>,
        guard: &R::Guard,
        tid: usize,
        ph: i64,
        helper: usize,
    ) {
        while self.is_still_pending(tid, ph) {
            let first = R::protect(local, H_NODE, &self.head); // L111
            // ord(helper-guard, sc=help): tail read for the empty/lag
            // classification (L112)
            let last = self.tail.load(Ordering::SeqCst); // L112
            // SAFETY: head is never null and `first` is protected; a
            // sentinel is only retired after head moves off it.
            // ord(helper-guard, sc=help): protected sentinel's next read (L113)
            let next = unsafe { (*first).next.load(Ordering::SeqCst) }; // L113
            // ord(helper-guard, sc=help): head re-validation (L114)
            if first != self.head.load(Ordering::SeqCst) {
                continue; // L114 failed: restart
            }
            if first == last {
                // L115: queue might be empty.
                if next.is_null() {
                    // L116: queue is empty.
                    // L117: SeqCst — this read must be SC-after the
                    // emptiness observation; combined with the
                    // phase-before-ctrl publish order it guarantees we
                    // never complete a dequeue as "empty" using an
                    // emptiness observation that predates the dequeue's
                    // phase selection (the L117–119 doorway guard).
                    let (cur, phase) = self.state[tid].view(Ordering::SeqCst);
                    // ord(helper-guard, sc=help): tail re-check before
                    // recording an empty result (L117)
                    if self.tail.load(Ordering::SeqCst) == last && cur.pending() && phase <= ph {
                        inject!(R::SITES.clear_pending_deq_empty);
                        // L118–120: record the empty result (node = null)
                        // and clear pending. Transition failure means
                        // another helper resolved the operation.
                        self.state[tid].cas_ctrl(cur, 0, false, false);
                    }
                } else {
                    // L122: an enqueue is in progress; help it first.
                    self.help_finish_enq(local); // L123
                }
            } else {
                // L125: queue is not empty.
                // L126: SeqCst for the same helping-correctness reasons
                // as L117/L146.
                let (cur, phase) = self.state[tid].view(Ordering::SeqCst);
                if !(cur.pending() && phase <= ph) {
                    break; // L128
                }
                // L129–134: stage 0 — point the owner's descriptor at
                // the current sentinel (L127 reads the node), so helpers
                // racing between the empty and non-empty paths agree on
                // which node the operation is about to remove.
                // ord(helper-guard, sc=help): head consistency check before
                // stage 0 (L129)
                if self.head.load(Ordering::SeqCst) == first && cur.node_addr() != first as usize {
                    inject!(R::SITES.bind_sentinel);
                    if !self.state[tid].cas_ctrl(cur, first as usize, true, false) {
                        continue; // L132: descriptor changed; restart
                    }
                }
                inject!(R::SITES.lock_sentinel);
                // L135: step 1 — lock the sentinel with the owner's tid
                // (linearization point of a successful dequeue).
                // SAFETY: `first` is protected.
                let locked = unsafe {
                    // ord(linearization, sc=lock, steps=Lock): the deq_tid lock
                    // CAS (L135)
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
                // L136: complete whichever dequeue locked the sentinel.
                self.help_finish_deq(local, guard, helper);
            }
        }
    }

    /// `help_finish_deq()`, L141–153: steps 2 and 3 — clear the locking
    /// owner's `pending` flag, handing it the value node, then swing
    /// `head` past the sentinel. A winning head swing retires the
    /// sentinel through `helper`'s backend state.
    ///
    /// The node hand-off replaces the paper's L103–107 read through the
    /// sentinel (and §3.4's value courier): step 2 completes the
    /// owner's word pointing at `next` — the *value node*, about to
    /// become the new sentinel — and the owner's epilogue takes the
    /// value out of it and consumes it (`Backend::consume`).
    pub(crate) fn help_finish_deq(
        &self,
        local: &mut R::HandleState<'_, T>,
        guard: &R::Guard,
        helper: usize,
    ) {
        let first = R::protect(local, H_NODE, &self.head); // L142
        // SAFETY: as in `help_deq`.
        // ord(helper-guard, sc=help): protected sentinel's next read (L143)
        let next = unsafe { (*first).next.load(Ordering::SeqCst) }; // L143
        // Protect `next` before the head swing: while `first` is still
        // the head, `next` cannot have been retired (head must pass
        // `first` before it can pass `next`).
        if !R::protect_next(local, next, &self.head, first) {
            R::clear(local, H_NEXT);
            return;
        }
        // SAFETY: `first` is protected.
        // ord(helper-guard, sc=help): deq_tid read identifying the lock owner
        // (L144)
        let tid = unsafe { (*first).deq_tid.load(Ordering::SeqCst) }; // L144
        if tid == FAST_DEQUEUER {
            // Fast-locked sentinel: the `deqTid` CAS both linearized
            // the dequeue and granted the fast dequeuer unique value
            // ownership (no hand-off), so step 2 is skipped. Step 3 and
            // the winner-retires rule are unchanged.
            inject!(R::SITES.swing_head);
            // ord(helper-guard, sc=help): FAST_DEQUEUER branch: head
            // re-validation before the helper-side swing (no descriptor to ack)
            if self.head.load(Ordering::SeqCst) == first
                && !next.is_null()
                && self
                    .head
                    // ord(helper-guard, sc=swing): FAST_DEQUEUER branch: head
                    // swing past a fast-locked sentinel (model FastFixHead);
                    // winner owns its retirement
                    .compare_exchange(first, next, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
            {
                // SAFETY: `first` is now unreachable from the queue and
                // retired exactly once (by the unique CAS winner).
                unsafe { self.retire(local, guard, first, helper) };
            }
            R::clear(local, H_NEXT);
            return;
        }
        if tid != NO_DEQUEUER {
            // A locked sentinel was observed: the window between dequeue
            // steps 1 and 2.
            inject!(R::SITES.clear_pending_deq);
            let tid = tid as usize;
            // L146: SeqCst — symmetric to the L90 argument: an
            // Acquire-stale completed word of an *older* dequeue that
            // was handed the same recycled node would no-op-skip step 2
            // and let us swing head with the current operation still
            // pending.
            let cur = self.state[tid].load_ctrl(Ordering::SeqCst);
            // ord(helper-guard, sc=help): head re-validation (L147)
            if self.head.load(Ordering::SeqCst) == first && !next.is_null() {
                // L147. All step-2 racers compute the same `next`: they
                // all validated `first` as head while it was protected,
                // and a protected node's `next` is write-once.
                if !self.config.validate_before_cas || cur.pending() {
                    // L148–149: step 2 — acknowledge linearization and
                    // hand the owner its value node.
                    self.state[tid].cas_ctrl(cur, next as usize, false, false);
                }
                inject!(R::SITES.swing_head);
                // L150: step 3 — fix head. The winner retires the
                // removed sentinel (§3.4's "RetireNode at the end of
                // help_deq" point), which the backend holds until no
                // reader that could observe it remains.
                if self
                    .head
                    // ord(helper-guard, sc=swing): head swing (L150, model
                    // FixHead); winner owns sentinel retirement
                    .compare_exchange(first, next, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
                {
                    // SAFETY: `first` is now unreachable from the queue
                    // and retired exactly once (by the unique CAS winner).
                    unsafe { self.retire(local, guard, first, helper) };
                }
            }
        }
        R::clear(local, H_NEXT);
    }

    /// Retires a sentinel unlinked by `helper`'s winning head swing,
    /// counting a recycling overflow against `helper`.
    ///
    /// # Safety
    ///
    /// As for `Backend::retire`: `node` is unlinked and retired
    /// exactly once.
    unsafe fn retire(
        &self,
        local: &mut R::HandleState<'_, T>,
        guard: &R::Guard,
        node: *mut Node<T>,
        helper: usize,
    ) {
        // SAFETY: forwarded from the caller.
        if unsafe { R::retire(local, guard, node, &self.pool) } {
            self.stats[helper].cache_overflows.bump();
        }
    }

    // ------------------------------------------------------------------
    // abandoned-handle reaping (DESIGN.md §13)
    // ------------------------------------------------------------------

    /// Executes a reap of `victim`'s slot. The caller has already won
    /// reap rights at lease `generation` — via `IdPool::begin_reap`
    /// (fresh reap) or `IdPool::takeover_reap` (adopting a reap whose
    /// reaper itself went silent). Wait-free: every phase below is a
    /// bounded helping call or a single CAS.
    ///
    /// The sequence is: adopt the victim's pending operation through
    /// the ordinary helping machinery, drive tail/head past any node of
    /// the victim's (the L91 wedge — helpers can only swing the tail
    /// while the owner's descriptor still references the dangling node,
    /// so the slot must not be retired before the tail passed it), win
    /// the [`StateSlot::try_retire`] election, and only as the election
    /// winner perform the two destructive steps: claim-and-discard an
    /// unclaimed dequeue result, and quarantine the victim's
    /// reclamation participation (`Backend::quarantine`). Finally the
    /// lease is returned to the pool (`finish_reap`), making the
    /// virtual ID acquirable again.
    ///
    /// [`StateSlot::try_retire`]: crate::desc::StateSlot::try_retire
    pub(crate) fn reap_slot(
        &self,
        local: &mut R::HandleState<'_, T>,
        guard: &R::Guard,
        victim: usize,
        generation: u64,
        helper: usize,
    ) {
        inject!(R::SITES.reap_adopt);
        let (w0, phase0) = self.state[victim].view(Ordering::SeqCst);
        let was_pending = w0.pending();
        let me = &self.stats[helper];
        if was_pending {
            me.reap_adoptions.bump();
            if w0.enqueue() {
                self.help_enq(local, victim, phase0, helper);
            } else {
                self.help_deq(local, guard, victim, phase0, helper);
            }
        }
        // The L91 wedge: the tail must move past any node the victim's
        // descriptor references before the descriptor may be blanked
        // (same argument as `KpHandle::drop`). Head driven for symmetry.
        self.help_finish_enq(local);
        self.help_finish_deq(local, guard, helper);
        inject!(R::SITES.reap_retire);
        let w1 = self.state[victim].load_ctrl(Ordering::SeqCst);
        if w1.pending() {
            // Only reachable if the "dead" owner published a new
            // operation after its lease was revoked — a lease-contract
            // violation (DESIGN.md §13). Leave the slot alone; the
            // lease stays in `Reaping` so the id is at least not
            // handed out while the violator still uses the descriptor.
            debug_assert!(false, "victim republished after lease revocation");
            return;
        }
        if self.state[victim].try_retire(w1) {
            // Election won: we alone own the destructive steps. A
            // stalled co-reaper that read the same word loses the CAS
            // and skips both.
            if was_pending && !w1.enqueue() && !w1.node_is_null() {
                // The victim died mid-dequeue and the operation
                // completed non-empty during *this* reap. Nobody will
                // ever run the owner's epilogue: claim and discard the
                // value so conservation stays exact, completing the
                // consumption exactly as the owner would.
                let node = w1.node_ptr::<Node<T>>();
                // SAFETY (liveness): we observed the op pending at
                // entry, so the step-2 hand-off of `node` happened
                // during this reap — under our epoch pin, and before
                // anyone consumed the node (the hazard gate's CONSUMED
                // token is set only by the completed word's owner), so
                // the backend keeps it allocated. SAFETY (uniqueness):
                // the try_retire election makes us the unique claimant,
                // re-establishing the single-owner take argument of
                // `KpHandle::read_deq_result`.
                unsafe {
                    let value = (*(*node).value.get()).take();
                    debug_assert!(value.is_some(), "reaped dequeue result already taken");
                    drop(value);
                    R::consume(node, &self.pool);
                }
            }
            // The swap prevents a later reap of this slot's next lease
            // from acting on a stale token.
            // ord(reclamation, sc=token): takes the victim's reclamation token
            // exactly once (zeroing the slot) so a later reap of the slot's
            // next lease cannot quarantine a stale token
            let token = self.tokens[victim].swap(0, Ordering::SeqCst);
            // SAFETY: lease revoked and election won (see above).
            if token != 0 && unsafe { R::quarantine(&self.reclaim, &self.tokens, victim, token) } {
                me.quarantines.bump();
            }
        }
        inject!(R::SITES.reap_finish);
        if self.ids.finish_reap(victim, generation) {
            me.reaps.bump();
        }
    }

    // ------------------------------------------------------------------
    // fast path (no descriptor, no phase, no helping obligation —
    // the bounded lock-free Michael–Scott loop of the 2012
    // fast-path/slow-path methodology; see DESIGN.md §12)
    // ------------------------------------------------------------------

    /// Bounded lock-free enqueue attempt. `node` is still private to
    /// the caller and carries `enq_tid == FAST_ENQUEUER`; at most
    /// `budget` loop iterations run (the handle's — possibly
    /// per-handle-overridden — `max_fast_failures`). Returns `true` once the
    /// append CAS — the same linearization point as the slow path's
    /// L74 — succeeds. `false` means every iteration lost to a
    /// concurrent operation (each failure proves one succeeded, which
    /// bounds the loop by global progress), leaving `node` private so
    /// the caller can demote it to the slow path.
    ///
    /// `inflight` is the caller's panic-recovery tracker for the
    /// private node: it is cleared the instant the append CAS publishes
    /// the node, so an unwind landing after publication (e.g. at the
    /// `fast.swing_tail` chaos site) cannot double-free it. `tid` is
    /// the caller's, whose counter block the attempt writes.
    pub(crate) fn try_fast_enqueue(
        &self,
        local: &R::HandleState<'_, T>,
        node: *mut Node<T>,
        budget: usize,
        inflight: &mut *mut Node<T>,
        tid: usize,
    ) -> bool {
        // SAFETY: the caller owns `node` exclusively until the append
        // CAS publishes it.
        debug_assert_eq!(unsafe { &*node }.enq_tid, FAST_ENQUEUER);
        for _ in 0..budget {
            inject!(R::SITES.fast_enq);
            let last = R::protect(local, H_NODE, &self.tail);
            // SAFETY: as in `help_enq` — a node still reachable as tail
            // cannot be retired or recycled while protected, so its
            // `next` is write-once during the window below.
            // ord(helper-guard, sc=help): fast-path protected tail's next read
            // classifying settled vs dangling
            let next = unsafe { (*last).next.load(Ordering::SeqCst) };
            // ord(helper-guard, sc=help): fast-path tail re-validation before
            // acting on the next read
            if last != self.tail.load(Ordering::SeqCst) {
                continue;
            }
            if next.is_null() {
                // SAFETY: `last` is protected.
                if unsafe {
                    // ord(linearization, sc=append, steps=FastAppend): the fast
                    // append CAS -- same L74 linearization point as the slow
                    // path, reached without a descriptor
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
                    // node is public now — recovery must not free it.
                    *inflight = ptr::null_mut();
                    self.stats[tid].appends_total.bump();
                    inject!(R::SITES.fast_swing_tail);
                    // Step 3, best effort: any helper's
                    // help_finish_enq (FAST_ENQUEUER branch) also
                    // swings the tail past our node.
                    // ord(helper-guard, sc=swing): owner's best-effort tail
                    // swing (model FastFixTail); helpers' FAST_ENQUEUER branch
                    // races the same CAS
                    let _ = self.tail.compare_exchange(
                        last,
                        node,
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                    );
                    return true;
                }
            } else {
                // Tail lags behind a dangling node (fast or slow):
                // finish that enqueue first, exactly like L79–80 — this
                // is what keeps a slow-path append's step-2-before-
                // step-3 order intact when fast ops race it.
                self.help_finish_enq(local);
            }
        }
        false
    }

    /// Test infrastructure (reached through the `#[doc(hidden)]`
    /// `KpHandle::fast_append_unswung`): performs the fast-path append
    /// CAS and then deliberately **skips** the step-3 tail swing,
    /// leaving the tail lagging — the exact shared state a thread
    /// killed at the `fast.swing_tail` site leaves behind when nothing
    /// runs its unwind recovery (sudden death). The value *is*
    /// linearized (the append CAS is the linearization point). Loops
    /// until the append lands so the resulting wedge is deterministic.
    pub(crate) fn append_no_swing(
        &self,
        local: &R::HandleState<'_, T>,
        node: *mut Node<T>,
        tid: usize,
    ) {
        // SAFETY: the caller owns `node` exclusively until the append
        // CAS publishes it.
        debug_assert_eq!(unsafe { &*node }.enq_tid, FAST_ENQUEUER);
        loop {
            let last = R::protect(local, H_NODE, &self.tail);
            // SAFETY: as in `try_fast_enqueue`.
            // ord(helper-guard, sc=help): test-only lagging-tail fixture
            // (sudden-death wedge, DESIGN.md SS13.1): protected tail's next
            // read classifying settled vs dangling
            let next = unsafe { (*last).next.load(Ordering::SeqCst) };
            // ord(helper-guard, sc=help): test-only fixture: tail re-validation
            // before acting on the next read
            if last != self.tail.load(Ordering::SeqCst) {
                continue;
            }
            if next.is_null() {
                // SAFETY: `last` is protected.
                if unsafe {
                    // ord(linearization, sc=append, steps=FastAppend):
                    // test-only fixture: the fast append CAS without the step-3
                    // tail swing -- same L74 linearization point as
                    // try_fast_enqueue
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
                    R::clear(local, H_NODE);
                    return;
                }
            } else {
                self.help_finish_enq(local);
            }
        }
    }

    /// Bounded lock-free dequeue attempt. Linearizes either empty (the
    /// Michael–Scott `head == tail && next == null` check) or by CASing
    /// the sentinel's `deqTid` from `NO_DEQUEUER` to `FAST_DEQUEUER` —
    /// the same lock word slow-path dequeues use (L135), so the two
    /// paths serialize on the sentinel: a slow-path stage-1 lock blocks
    /// the fast path and vice versa. Lock success proves the sentinel
    /// was never dequeued and hence is still the head, making the value
    /// transfer uniquely ours.
    pub(crate) fn try_fast_dequeue(
        &self,
        local: &mut R::HandleState<'_, T>,
        guard: &R::Guard,
        budget: usize,
        tid: usize,
    ) -> FastDeq<T> {
        for _ in 0..budget {
            inject!(R::SITES.fast_deq);
            let first = R::protect(local, H_NODE, &self.head);
            // ord(helper-guard, sc=help): fast-path tail read for the empty/lag
            // classification
            let last = self.tail.load(Ordering::SeqCst);
            // SAFETY: as in `help_deq` — head is never null and `first`
            // is protected, so its `next` is write-once meanwhile.
            // ord(linearization, sc=help, steps=FastEmpty): fast-path protected
            // sentinel's next read; with first == last, observing null here is
            // the empty-dequeue linearization: the protected sentinel's next is
            // write-once, so a null next proves nothing was appended after it
            // and head cannot have moved past it
            let next = unsafe { (*first).next.load(Ordering::SeqCst) };
            // Protect `next` before any dereference: while `first` is
            // still the head, `next` cannot have been retired.
            if !R::protect_next(local, next, &self.head, first) {
                R::clear(local, H_NEXT);
                continue;
            }
            if first == last {
                R::clear(local, H_NEXT);
                if next.is_null() {
                    // Empty: linearizes at the `next` load above (the
                    // L115–120 shape without a descriptor record).
                    // `first` was the head when protected and its `next`
                    // is still null, so nothing was appended after it
                    // and head cannot have moved past it: at that load
                    // head == tail == first with no successor.
                    self.stats[tid].empty_dequeues.bump();
                    return FastDeq::Done(None);
                }
                // An enqueue is mid-flight; help it land first
                // (L122–123).
                self.help_finish_enq(local);
                continue;
            }
            // SAFETY: `first` is protected.
            let locked = unsafe {
                // ord(linearization, sc=lock, steps=FastLock): the fast deq_tid
                // lock CAS (FAST_DEQUEUER marker) -- same L135 linearization
                // point as the slow path
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
                // SAFETY: `next` is protected (a locked sentinel's
                // `next` is immutable, and `first` was never dequeued
                // before our lock, so `next` is its successor); the
                // lock's uniqueness gives the value take exclusivity (a
                // node's value is taken exactly once, by whoever locks
                // its predecessor). The enqueuer's write is released by
                // its append CAS and acquired by our SeqCst next load.
                let taken = unsafe { (*(*next).value.get()).take() };
                // Checked in release builds on purpose: an invariant
                // break here (e.g. a reap-path double-take) must panic,
                // never become UB. The branch is perfectly predicted.
                let value =
                    taken.expect("fast-locked sentinel's successor must hold a value");
                // The value node is consumed here, exactly as the slow
                // owner's epilogue would.
                // SAFETY: we are the unique taker (see above).
                unsafe { R::consume(next, &self.pool) };
                inject!(R::SITES.fast_swing_head);
                // Step 3, best effort: a helper's help_finish_deq
                // (FAST_DEQUEUER branch) also swings; the CAS winner
                // owns the sentinel's retirement.
                if self
                    .head
                    // ord(helper-guard, sc=swing): owner's best-effort head
                    // swing (model FastFixHead); winner retires the unlinked
                    // sentinel
                    .compare_exchange(first, next, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
                {
                    // SAFETY: `first` is now unreachable and retired
                    // exactly once (by the unique CAS winner).
                    unsafe { self.retire(local, guard, first, tid) };
                }
                R::clear(local, H_NEXT);
                return FastDeq::Done(Some(value));
            }
            // Lost the lock to a concurrent dequeue (fast or slow):
            // complete it so head advances, then retry.
            R::clear(local, H_NEXT);
            self.help_finish_deq(local, guard, tid);
        }
        FastDeq::Exhausted
    }
}

/// Outcome of a bounded fast-path dequeue attempt.
pub(crate) enum FastDeq<T> {
    /// The dequeue linearized on the fast path.
    Done(Option<T>),
    /// The CAS-failure budget is exhausted; the caller falls back to
    /// the wait-free slow path.
    Exhausted,
}

impl<T: Send, R: Reclaim> ConcurrentQueue<T> for KpQueue<T, R> {
    type Handle<'a>
        = KpHandle<'a, T, R>
    where
        T: 'a;

    fn register(&self) -> Result<Self::Handle<'_>, RegistrationError> {
        match self.ids.acquire() {
            Some(id) => {
                let local = R::enter(&self.reclaim, &self.tokens[id.id()]);
                Ok(KpHandle::new(self, id, local))
            }
            None => Err(RegistrationError {
                capacity: self.max_threads(),
            }),
        }
    }

    fn thread_capacity(&self) -> usize {
        self.max_threads()
    }

    /// Derived from the per-tid operation counters: enqueues minus
    /// values dequeued, summed over the counter blocks.
    fn depth_hint(&self) -> Option<usize> {
        Some(self.stats.depth())
    }

    fn drained_hint(&self) -> Option<u64> {
        Some(self.stats.drained())
    }

    /// The memory-pressure signal: retired nodes that left recycling —
    /// refused by the full shared pool, or pushed out of a full retire
    /// cache whose front had not matured.
    fn pressure_hint(&self) -> u64 {
        self.stats.overflows() + self.pool.overflows()
    }
}

impl<T, R: Reclaim> Drop for KpQueue<T, R> {
    fn drop(&mut self) {
        // Exclusive access: free the node list (values still resident
        // are dropped with their nodes; consumed ones are `None`).
        // Descriptors are in-place slot words — nothing to free. Retired
        // nodes are owned by the backend (epoch collector or hazard
        // domain), pooled ones by the pool; both drop after this body.
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            // SAFETY: exclusive access; list nodes are owned by the list
            // and were boxed at birth.
            let node = unsafe { Box::from_raw(cur) };
            // ord(reclamation): exclusive (&mut) teardown; no concurrent access
            // remains
            cur = node.next.load(Ordering::Relaxed);
        }
    }
}

impl<T: Send, R: Reclaim> std::fmt::Debug for KpQueue<T, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(R::NAME)
            .field("max_threads", &self.max_threads())
            .field("config", &self.config)
            .finish()
    }
}
