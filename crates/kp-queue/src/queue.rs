//! The wait-free queue proper: shared structure and helping machinery
//! (paper Figures 1, 2, 4 and 6).
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

use kp_sync::atomic::{AtomicI64, AtomicUsize, Ordering};

use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned, Shared};
use kp_sync::CachePadded;
use idpool::IdPool;
use queue_traits::{ConcurrentQueue, RegistrationError};

use crate::chaos_hooks::inject;
use crate::config::{Config, PhasePolicy};
use crate::desc::StateSlot;
use crate::handle::WfHandle;
use crate::node::{Node, FAST_DEQUEUER, FAST_ENQUEUER, NO_DEQUEUER};
use crate::pool::NodePool;
use crate::recycle::RetireCache;
use crate::stats::{StatsSnapshot, StatsTable};

/// The Kogan–Petrank wait-free MPMC FIFO queue.
///
/// See the [crate documentation](crate) for the algorithm overview and
/// the paper-variant table. Construct with [`WfQueue::new`] (default
/// `opt WF (1+2)` configuration) or [`WfQueue::with_config`], then call
/// [`register`](ConcurrentQueue::register) from each participating
/// thread.
pub struct WfQueue<T> {
    pub(crate) head: CachePadded<Atomic<Node<T>>>,
    pub(crate) tail: CachePadded<Atomic<Node<T>>>,
    /// One reusable descriptor slot per virtual thread ID (`state` in
    /// Figure 1), padded to its own cache line.
    pub(crate) state: Box<[CachePadded<StateSlot>]>,
    /// Monotone phase source under `PhasePolicy::AtomicCounter` (§3.3).
    phase_counter: CachePadded<AtomicI64>,
    /// Virtual thread IDs (§3.3 long-lived renaming).
    pub(crate) ids: IdPool,
    /// Per-tid epoch-participant token of the handle's current OS
    /// thread (`crossbeam_epoch::participant_token`), published lazily
    /// by the owner at operation start when the reaper is enabled and 0
    /// otherwise. A reap uses it to quarantine a dead owner's wedged
    /// pin so the epoch can advance again (DESIGN.md §13).
    pub(crate) epoch_tokens: Box<[CachePadded<AtomicUsize>]>,
    /// Mature retired nodes spilled by full retire caches, for any
    /// handle's enqueues (`crate::recycle`).
    pub(crate) pool: CachePadded<NodePool<Node<T>>>,
    pub(crate) config: Config,
    /// One counter block per virtual tid (`crate::stats`).
    pub(crate) stats: StatsTable,
}

// SAFETY: all cross-thread traffic goes through atomics. The only
// non-atomic shared data is each node's payload (written before the
// node is published and taken exactly once by the unique thread whose
// dequeue locked the node's predecessor — see `WfHandle::dequeue`) and
// each node's `enq_tid` (rewritten only while the node is exclusively
// owned, before republication — see `WfHandle::alloc_node`).
unsafe impl<T: Send> Send for WfQueue<T> {}
// SAFETY: as for Send.
unsafe impl<T: Send> Sync for WfQueue<T> {}

impl<T: Send> WfQueue<T> {
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
        let sentinel = Owned::new(Node::sentinel());
        let queue = WfQueue {
            head: CachePadded::new(Atomic::null()),
            tail: CachePadded::new(Atomic::null()),
            state: (0..max_threads)
                .map(|_| CachePadded::new(StateSlot::initial()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            phase_counter: CachePadded::new(AtomicI64::new(0)),
            ids: IdPool::new(max_threads),
            epoch_tokens: (0..max_threads)
                .map(|_| CachePadded::new(AtomicUsize::new(0)))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            pool: CachePadded::new(NodePool::new(config.reuse_nodes)),
            config,
            stats: StatsTable::new(max_threads),
        };
        // SAFETY: the queue is not yet shared.
        let guard = unsafe { epoch::unprotected() };
        let s = sentinel.into_shared(guard);
        queue.head.store(s, Ordering::Relaxed);
        queue.tail.store(s, Ordering::Relaxed);
        queue
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

    /// Approximate number of elements (O(n) walk; diagnostics only).
    ///
    /// Ordering relaxation: Acquire, not SeqCst. The result is advisory
    /// — it participates in no helping decision and no proof obligation
    /// — so all it needs is that a non-null `next` dereferences a fully
    /// initialised node, which Acquire (paired with the release append
    /// CAS) provides.
    pub fn len_approx(&self) -> usize {
        let guard = epoch::pin();
        let mut n = 0;
        let head = self.head.load(Ordering::Acquire, &guard);
        // SAFETY: head is never null and reachable nodes live under pin.
        let mut cur = unsafe { head.deref() }.next.load(Ordering::Acquire, &guard);
        while !cur.is_null() {
            n += 1;
            // SAFETY: a non-null `next` reaches an initialised node kept live by
            // the pin — same argument as for `head` above.
            cur = unsafe { cur.deref() }.next.load(Ordering::Acquire, &guard);
        }
        n
    }

    /// True if the queue is observed empty.
    ///
    /// Ordering relaxation: Acquire — same advisory-only argument as
    /// [`len_approx`](Self::len_approx).
    pub fn is_empty(&self) -> bool {
        let guard = epoch::pin();
        let head = self.head.load(Ordering::Acquire, &guard);
        // SAFETY: as in `len_approx`.
        unsafe { head.deref() }
            .next
            .load(Ordering::Acquire, &guard)
            .is_null()
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

    /// `help(phase)`, L36–47: scan the whole state array and help every
    /// pending operation no younger than `ph`.
    pub(crate) fn help_all(
        &self,
        ph: i64,
        helper: usize,
        guard: &Guard,
        cache: &mut RetireCache<T>,
    ) {
        for i in 0..self.state.len() {
            self.help_index(i, ph, helper, guard, cache);
        }
    }

    /// One iteration of the `help()` scan body (L38–45), also used by
    /// the chunked §3.3 policies.
    ///
    /// The ctrl load is SeqCst for the same helping-obligation reason
    /// as [`is_still_pending`](Self::is_still_pending).
    pub(crate) fn help_index(
        &self,
        i: usize,
        ph: i64,
        helper: usize,
        guard: &Guard,
        cache: &mut RetireCache<T>,
    ) {
        let (w, phase) = self.state[i].view(Ordering::SeqCst);
        if w.pending() && phase <= ph {
            if i != helper {
                self.stats[helper].help_calls.bump();
            }
            if w.enqueue() {
                self.help_enq(i, ph, helper, guard);
            } else {
                self.help_deq(i, ph, helper, guard, cache);
            }
        }
    }

    // ------------------------------------------------------------------
    // enqueue machinery (Figure 4)
    // ------------------------------------------------------------------

    /// `help_enq(tid, phase)`, L67–84: drive thread `tid`'s pending
    /// enqueue until it is linearized (step 1 of the scheme: append the
    /// node at the end of the list).
    pub(crate) fn help_enq(&self, tid: usize, ph: i64, helper: usize, guard: &Guard) {
        while self.is_still_pending(tid, ph) {
            let last = self.tail.load(Ordering::SeqCst, guard); // L69
            // SAFETY: tail is never null; the node it references is not
            // retired before head passes it, which cannot happen while it
            // is still the tail; we are pinned throughout (and recycled
            // nodes obey the same maturity rule as freed ones, so our pin
            // also keeps `last` out of any reuse cache hand-out).
            let last_ref = unsafe { last.deref() };
            let next = last_ref.next.load(Ordering::SeqCst, guard); // L70
            if last == self.tail.load(Ordering::SeqCst, guard) {
                // L71
                if next.is_null() {
                    // L72: enqueue can be applied.
                    // L73: re-check, then read the node from the owner's
                    // descriptor. Reading the slot once and using its own
                    // fields is equivalent to the paper's repeated
                    // `state.get(tid)` reads: if the descriptor changed,
                    // the owner's node was already appended, which makes
                    // `last.next` non-null and the CAS below fail (the
                    // dangling-node invariant, §3.1). Node recycling does
                    // not weaken this: CAS success proves `last.next` was
                    // null, i.e. the node we read was never appended, so
                    // the owner's operation cannot have completed and the
                    // node cannot have been retired, let alone reused.
                    // SeqCst keeps the read coherent with the pending
                    // check inside `is_still_pending` above.
                    let (w, phase) = self.state[tid].view(Ordering::SeqCst);
                    if w.pending() && phase <= ph && w.enqueue() {
                        inject!("kp.append");
                        let node = Shared::from(w.node_ptr::<Node<T>>() as *const Node<T>);
                        if last_ref
                            .next
                            .compare_exchange(
                                Shared::null(),
                                node,
                                Ordering::SeqCst,
                                Ordering::Relaxed,
                                guard,
                            )
                            .is_ok()
                        {
                            // L74 succeeded: the operation is linearized.
                            let me = &self.stats[helper];
                            me.appends_total.bump();
                            if helper != tid {
                                me.helped_appends.bump();
                            }
                            self.help_finish_enq(guard); // L75
                            return;
                        }
                    }
                } else {
                    // L79: some enqueue is in progress; finish it first.
                    self.help_finish_enq(guard); // L80
                }
            }
        }
    }

    /// `help_finish_enq()`, L85–97: steps 2 and 3 of the scheme — clear
    /// the owner's `pending` flag, then swing `tail` to the appended
    /// node.
    pub(crate) fn help_finish_enq(&self, guard: &Guard) {
        let last = self.tail.load(Ordering::SeqCst, guard); // L86
        // SAFETY: as in `help_enq`.
        let last_ref = unsafe { last.deref() };
        let next = last_ref.next.load(Ordering::SeqCst, guard); // L87
        if !next.is_null() {
            // SAFETY: `next` was reachable from the pinned tail.
            let next_ref = unsafe { next.deref() };
            let tid = next_ref.enq_tid; // L89: owner of the dangling node
            if tid == FAST_ENQUEUER {
                // Fast-path node: there is no descriptor to complete
                // (the append CAS both linearized and acknowledged the
                // operation), so step 2 — and the L91 descriptor
                // identity check, which could never pass — is skipped.
                // The tail CAS from `last` re-validates by itself: if
                // tail already advanced, it fails harmlessly.
                inject!("kp.swing_tail");
                let _ = self.tail.compare_exchange(
                    last,
                    next,
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                    guard,
                );
                return;
            }
            debug_assert!(
                tid < self.state.len(),
                "dangling node must carry a valid enqueuer tid"
            );
            // L90. SeqCst is required here, not Acquire: with node
            // recycling an Acquire load may return an *old* completed
            // word of a previous operation that reused the same node —
            // its fields ({pending: false, enqueue, node == next}) equal
            // the transition target, so `cas_ctrl`'s no-op skip would
            // report step 2 done and we would swing the tail while the
            // real current word is still pending, wedging the owner.
            // SeqCst excludes this: this load is SC-after our `next`
            // read, which is SC-after the append CAS, which is SC-after
            // the owner's publish of the *current* word.
            let cur = self.state[tid].load_ctrl(Ordering::SeqCst);
            // L91: `last` still tail and the owner's descriptor still
            // refers to the dangling node (guards against a racing
            // help_finish_enq having already completed a *different*
            // operation of the same thread).
            if last == self.tail.load(Ordering::SeqCst, guard)
                && cur.node_addr() == next.as_raw() as usize
            {
                inject!("kp.clear_pending.enq");
                // §3.3 enhancement: skip the descriptor CAS when the flag
                // is already off (a racing helper beat us to step 2).
                if !self.config.validate_before_cas || cur.pending() {
                    // L92–93: step 2 — acknowledge linearization (a
                    // version-tagged in-place transition; phase kept).
                    self.state[tid].cas_ctrl(cur, next.as_raw() as usize, false, true);
                }
                inject!("kp.swing_tail");
                // L94: step 3 — fix tail. At most one of the racing CASes
                // succeeds; the others observe tail already advanced.
                let _ = self.tail.compare_exchange(
                    last,
                    next,
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                    guard,
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // dequeue machinery (Figure 6)
    // ------------------------------------------------------------------

    /// `help_deq(tid, phase)`, L109–140: drive thread `tid`'s pending
    /// dequeue until it is linearized (either the sentinel is locked
    /// with `tid`, or the queue is observed empty).
    pub(crate) fn help_deq(
        &self,
        tid: usize,
        ph: i64,
        helper: usize,
        guard: &Guard,
        cache: &mut RetireCache<T>,
    ) {
        while self.is_still_pending(tid, ph) {
            let first = self.head.load(Ordering::SeqCst, guard); // L111
            let last = self.tail.load(Ordering::SeqCst, guard); // L112
            // SAFETY: head is never null; a sentinel is only retired
            // after head moves off it, which our pin then defers (the
            // reuse cache applies the same maturity rule before handing
            // a node out, so the pin covers recycling too).
            let first_ref = unsafe { first.deref() };
            let next = first_ref.next.load(Ordering::SeqCst, guard); // L113
            if first != self.head.load(Ordering::SeqCst, guard) {
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
                    if last == self.tail.load(Ordering::SeqCst, guard)
                        && cur.pending()
                        && phase <= ph
                    {
                        inject!("kp.clear_pending.deq_empty");
                        // L118–120: record the empty result (node = null)
                        // and clear pending. Transition failure means
                        // another helper resolved the operation.
                        self.state[tid].cas_ctrl(cur, 0, false, false);
                    }
                } else {
                    // L122: an enqueue is in progress; help it first.
                    self.help_finish_enq(guard); // L123
                }
            } else {
                // L125: queue is not empty.
                // L126: SeqCst for the same helping-correctness reasons
                // as L117/L146.
                let (cur, phase) = self.state[tid].view(Ordering::SeqCst);
                if !(cur.pending() && phase <= ph) {
                    break; // L128
                }
                let node = cur.node_addr(); // L127
                // L129–134: stage 0 — point the owner's descriptor at the
                // current sentinel, so helpers racing between the empty
                // and non-empty paths agree on which node the operation
                // is about to remove.
                if first == self.head.load(Ordering::SeqCst, guard)
                    && node != first.as_raw() as usize
                {
                    inject!("kp.bind_sentinel");
                    if !self.state[tid].cas_ctrl(cur, first.as_raw() as usize, true, false) {
                        continue; // L132: descriptor changed; restart
                    }
                }
                inject!("kp.lock_sentinel");
                // L135: step 1 — lock the sentinel with the owner's tid
                // (linearization point of a successful dequeue).
                let locked = first_ref
                    .deq_tid
                    .compare_exchange(
                        NO_DEQUEUER,
                        tid as isize,
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                    )
                    .is_ok();
                if locked {
                    let me = &self.stats[helper];
                    me.locks_total.bump();
                    if helper != tid {
                        me.helped_locks.bump();
                    }
                }
                // L136: complete whichever dequeue locked the sentinel.
                self.help_finish_deq(guard, cache, helper);
            }
        }
    }

    /// `help_finish_deq()`, L141–153: steps 2 and 3 — clear the locking
    /// owner's `pending` flag, then swing `head` past the sentinel. A
    /// winning head swing retires the sentinel into `helper`'s cache.
    pub(crate) fn help_finish_deq(
        &self,
        guard: &Guard,
        cache: &mut RetireCache<T>,
        helper: usize,
    ) {
        let first = self.head.load(Ordering::SeqCst, guard); // L142
        // SAFETY: as in `help_deq`.
        let first_ref = unsafe { first.deref() };
        let next = first_ref.next.load(Ordering::SeqCst, guard); // L143
        let tid = first_ref.deq_tid.load(Ordering::SeqCst); // L144
        if tid == FAST_DEQUEUER {
            // Fast-locked sentinel: the `deqTid` CAS both linearized
            // the dequeue and granted the fast dequeuer unique value
            // ownership (no descriptor courier), so step 2 is skipped.
            // Step 3 and the winner-retires rule are unchanged.
            inject!("kp.swing_head");
            if first == self.head.load(Ordering::SeqCst, guard)
                && !next.is_null()
                && self
                    .head
                    .compare_exchange(first, next, Ordering::SeqCst, Ordering::Relaxed, guard)
                    .is_ok()
            {
                // SAFETY: `first` is now unreachable from the queue and
                // retired exactly once (by the unique CAS winner).
                unsafe { self.retire(first, guard, cache, helper) };
            }
            return;
        }
        if tid != NO_DEQUEUER {
            // A locked sentinel was observed: the window between dequeue
            // steps 1 and 2.
            inject!("kp.clear_pending.deq");
            let tid = tid as usize;
            // L146: SeqCst — symmetric to the L90 argument: an
            // Acquire-stale completed word of an *older* dequeue that
            // bound the same recycled sentinel would no-op-skip step 2
            // and let us swing head with the current operation still
            // pending.
            let cur = self.state[tid].load_ctrl(Ordering::SeqCst);
            if first == self.head.load(Ordering::SeqCst, guard) && !next.is_null() {
                // L147
                if !self.config.validate_before_cas || cur.pending() {
                    // L148–149: step 2 — acknowledge linearization,
                    // keeping the descriptor's sentinel reference (the
                    // owner reads the value through it, L103–107).
                    self.state[tid].cas_ctrl(cur, cur.node_addr(), false, false);
                }
                inject!("kp.swing_head");
                // L150: step 3 — fix head. The winner owns the unlinked
                // sentinel's retirement: it goes to the winner's reuse
                // cache (or the epoch collector), which holds it until
                // no pin that could observe it remains.
                if self
                    .head
                    .compare_exchange(first, next, Ordering::SeqCst, Ordering::Relaxed, guard)
                    .is_ok()
                {
                    // SAFETY: `first` is now unreachable from the queue
                    // and retired exactly once (by the unique CAS winner).
                    unsafe { self.retire(first, guard, cache, helper) };
                }
            }
        }
    }

    /// Hands a sentinel unlinked by `helper`'s winning head swing to
    /// its retire cache, counting an overflow against `helper`.
    ///
    /// # Safety
    ///
    /// As for [`RetireCache::push`]: `node` is unlinked and retired
    /// exactly once.
    unsafe fn retire(
        &self,
        node: Shared<'_, Node<T>>,
        guard: &Guard,
        cache: &mut RetireCache<T>,
        helper: usize,
    ) {
        // SAFETY: forwarded from the caller.
        if unsafe { cache.push(node.as_raw() as *mut Node<T>, guard, &self.pool) } {
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
    /// unclaimed dequeue result, and quarantine the victim's wedged
    /// epoch pin. Finally the lease is returned to the pool
    /// (`finish_reap`), making the virtual ID acquirable again.
    ///
    /// [`StateSlot::try_retire`]: crate::desc::StateSlot::try_retire
    pub(crate) fn reap_slot(
        &self,
        victim: usize,
        generation: u64,
        helper: usize,
        guard: &Guard,
        cache: &mut RetireCache<T>,
    ) {
        inject!("kp.reap.adopt");
        let (w0, phase0) = self.state[victim].view(Ordering::SeqCst);
        let was_pending = w0.pending();
        let me = &self.stats[helper];
        if was_pending {
            me.reap_adoptions.bump();
            if w0.enqueue() {
                self.help_enq(victim, phase0, helper, guard);
            } else {
                self.help_deq(victim, phase0, helper, guard, cache);
            }
        }
        // The L91 wedge: the tail must move past any node the victim's
        // descriptor references before the descriptor may be blanked
        // (same argument as `WfHandle::drop`). Head driven for symmetry.
        self.help_finish_enq(guard);
        self.help_finish_deq(guard, cache, helper);
        inject!("kp.reap.retire");
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
                // completed non-empty during *this* reap (we observed
                // it pending under `guard`). Nobody will ever run the
                // owner's epilogue: claim and discard the value so
                // conservation stays exact.
                //
                // SAFETY: `w1` names the sentinel the adopted dequeue
                // locked. We observed the op pending under our pin, so
                // its step-3 head swing — the retirement point — is
                // ordered after our pin began and the node (and its
                // successor) outlives `guard`. The try_retire election
                // makes us the unique claimant, re-establishing the
                // deq_tid-uniqueness take argument of
                // `WfHandle::read_deq_result`.
                let node = w1.node_ptr::<Node<T>>();
                // SAFETY: liveness per the block comment above — the
                // node outlives `guard`.
                let next = unsafe { &*node }.next.load(Ordering::Acquire, guard);
                debug_assert!(!next.is_null(), "locked sentinel must have a successor");
                // SAFETY: as above; each value is taken exactly once.
                let value = unsafe { (*next.deref().value.get()).take() };
                debug_assert!(value.is_some(), "reaped dequeue result already taken");
                drop(value);
            }
            // Quarantine the victim's epoch participation, but only
            // when it is actually wedged (a pin leaked at death). An
            // unpinned participant needs nothing: a live pin() re-reads
            // the global epoch, and a dead thread's TLS destructor
            // already deregistered it. The swap also prevents a later
            // reap of this slot's next lease from acting on a stale
            // token.
            let token = self.epoch_tokens[victim].swap(0, Ordering::SeqCst);
            // `token == participant_token()`: the victim handle last ran
            // on *this* OS thread (epoch participation is per-thread,
            // and several virtual ids can share a thread). Our own
            // participant is pinned right now — by us, the reaper — not
            // wedged by the dead handle; quarantining it would erase our
            // live pin. Skip: nothing is wedged in that case.
            //
            // The publisher scan generalizes that to *any* live handle
            // sharing the victim's OS thread: a handle publishes its
            // token (op_prologue) before it pins, so a handle currently
            // inside an operation on that thread is visible in some
            // other `epoch_tokens` slot — its pin is live, not wedged,
            // and must not be erased. Two reapers racing on two
            // abandoned slots that share a token cannot *both* skip:
            // each swaps its victim's slot to 0 before scanning
            // (SeqCst), so at least one scan runs after both swaps and
            // finds no publisher. A double quarantine is idempotent.
            // Residual window: a brand-new handle's first publish on
            // the victim's thread racing this scan — see DESIGN.md
            // §13.4 (the wall-clock reap floor makes it require a
            // patience-window-long preemption inside a few-instruction
            // prologue).
            let shared_by_live_handle = || {
                self.epoch_tokens
                    .iter()
                    .enumerate()
                    .any(|(i, t)| i != victim && t.load(Ordering::SeqCst) == token)
            };
            if token != 0
                && token != epoch::participant_token()
                && !shared_by_live_handle()
                && epoch::participant_is_pinned(token)
            {
                // SAFETY: the lease revocation (begin_reap/takeover)
                // poisons the handle — a surviving owner's next op
                // panics before touching the queue — so the
                // participant is never used for this queue again;
                // using it from *another* queue on the same (dead by
                // contract) thread is the documented lease-contract
                // violation (DESIGN.md §13).
                if unsafe { epoch::quarantine_participant(token) } {
                    me.quarantines.bump();
                }
            }
        }
        inject!("kp.reap.finish");
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
        node: *mut Node<T>,
        budget: usize,
        inflight: &mut *mut Node<T>,
        tid: usize,
        guard: &Guard,
    ) -> bool {
        // SAFETY: the caller owns `node` exclusively until the append
        // CAS publishes it.
        debug_assert_eq!(unsafe { &*node }.enq_tid, FAST_ENQUEUER);
        let new = Shared::from(node as *const Node<T>);
        for _ in 0..budget {
            inject!("kp.fast.enq");
            let last = self.tail.load(Ordering::SeqCst, guard);
            // SAFETY: as in `help_enq` — tail is never null and our pin
            // defers retirement/reuse of any node it reaches.
            let last_ref = unsafe { last.deref() };
            let next = last_ref.next.load(Ordering::SeqCst, guard);
            if last != self.tail.load(Ordering::SeqCst, guard) {
                continue;
            }
            if next.is_null() {
                if last_ref
                    .next
                    .compare_exchange(
                        Shared::null(),
                        new,
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                        guard,
                    )
                    .is_ok()
                {
                    // Linearized (the shared L74 append point); the
                    // node is public now — recovery must not free it.
                    *inflight = std::ptr::null_mut();
                    self.stats[tid].appends_total.bump();
                    inject!("kp.fast.swing_tail");
                    // Step 3, best effort: any helper's
                    // help_finish_enq (FAST_ENQUEUER branch) also
                    // swings the tail past our node.
                    let _ = self.tail.compare_exchange(
                        last,
                        new,
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                        guard,
                    );
                    return true;
                }
            } else {
                // Tail lags behind a dangling node (fast or slow):
                // finish that enqueue first, exactly like L79–80 — this
                // is what keeps a slow-path append's step-2-before-
                // step-3 order intact when fast ops race it.
                self.help_finish_enq(guard);
            }
        }
        false
    }

    /// Test infrastructure (reached through the `#[doc(hidden)]`
    /// `WfHandle::fast_append_unswung`): performs the fast-path append
    /// CAS and then deliberately **skips** the step-3 tail swing,
    /// leaving the tail lagging — the exact shared state a thread
    /// killed at `kp.fast.swing_tail` leaves behind when nothing runs
    /// its unwind recovery (sudden death). The value *is* linearized
    /// (the append CAS is the linearization point). Loops until the
    /// append lands so the resulting wedge is deterministic.
    pub(crate) fn append_no_swing(&self, node: *mut Node<T>, tid: usize, guard: &Guard) {
        // SAFETY: the caller owns `node` exclusively until the append
        // CAS publishes it.
        debug_assert_eq!(unsafe { &*node }.enq_tid, FAST_ENQUEUER);
        let new = Shared::from(node as *const Node<T>);
        loop {
            let last = self.tail.load(Ordering::SeqCst, guard);
            // SAFETY: as in `try_fast_enqueue` — tail is never null and
            // our pin defers retirement/reuse of any node it reaches.
            let last_ref = unsafe { last.deref() };
            let next = last_ref.next.load(Ordering::SeqCst, guard);
            if last != self.tail.load(Ordering::SeqCst, guard) {
                continue;
            }
            if next.is_null() {
                if last_ref
                    .next
                    .compare_exchange(
                        Shared::null(),
                        new,
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                        guard,
                    )
                    .is_ok()
                {
                    self.stats[tid].appends_total.bump();
                    return;
                }
            } else {
                self.help_finish_enq(guard);
            }
        }
    }

    /// Bounded lock-free dequeue attempt. Linearizes either empty (the
    /// Michael–Scott `head == tail && next == null` check, head-
    /// validated) or by CASing the sentinel's `deqTid` from
    /// `NO_DEQUEUER` to `FAST_DEQUEUER` — the same lock word slow-path
    /// dequeues use (L135), so the two paths serialize on the
    /// sentinel: a slow-path stage-1 lock blocks the fast path and
    /// vice versa. Lock success proves the sentinel was never dequeued
    /// and hence is still the head, making the value transfer uniquely
    /// ours.
    pub(crate) fn try_fast_dequeue(
        &self,
        budget: usize,
        cache: &mut RetireCache<T>,
        tid: usize,
        guard: &Guard,
    ) -> FastDeq<T> {
        for _ in 0..budget {
            inject!("kp.fast.deq");
            let first = self.head.load(Ordering::SeqCst, guard);
            let last = self.tail.load(Ordering::SeqCst, guard);
            // SAFETY: as in `help_deq` — head is never null; sentinel
            // retirement is deferred past our pin.
            let first_ref = unsafe { first.deref() };
            let next = first_ref.next.load(Ordering::SeqCst, guard);
            if first != self.head.load(Ordering::SeqCst, guard) {
                continue;
            }
            if first == last {
                if next.is_null() {
                    // Empty: linearizes at the `next` load above (the
                    // L115–120 shape without a descriptor record).
                    self.stats[tid].empty_dequeues.bump();
                    return FastDeq::Done(None);
                }
                // An enqueue is mid-flight; help it land first
                // (L122–123).
                self.help_finish_enq(guard);
                continue;
            }
            if first_ref
                .deq_tid
                .compare_exchange(
                    NO_DEQUEUER,
                    FAST_DEQUEUER,
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                // Step 1 won: the dequeue is linearized.
                self.stats[tid].locks_total.bump();
                // SAFETY: a locked sentinel's `next` is immutable and
                // kept live by our pin; the lock made us the unique
                // taker of its successor's value (a node's value is
                // taken exactly once, by whoever locks its
                // predecessor).
                let next_ref = unsafe { next.deref() };
                // SAFETY: value uniqueness — see the lock argument
                // above; the enqueuer's write is released by its append
                // CAS and acquired by our SeqCst next load.
                let taken = unsafe { (*next_ref.value.get()).take() };
                // Checked in release builds on purpose: an invariant
                // break here (e.g. a reap-path double-take) must panic,
                // never become UB. The branch is perfectly predicted.
                let value =
                    taken.expect("fast-locked sentinel's successor must hold a value");
                inject!("kp.fast.swing_head");
                // Step 3, best effort: a helper's help_finish_deq
                // (FAST_DEQUEUER branch) also swings; the CAS winner
                // owns the sentinel's retirement.
                if self
                    .head
                    .compare_exchange(first, next, Ordering::SeqCst, Ordering::Relaxed, guard)
                    .is_ok()
                {
                    // SAFETY: `first` is now unreachable and retired
                    // exactly once (by the unique CAS winner).
                    unsafe { self.retire(first, guard, cache, tid) };
                }
                return FastDeq::Done(Some(value));
            }
            // Lost the lock to a concurrent dequeue (fast or slow):
            // complete it so head advances, then retry.
            self.help_finish_deq(guard, cache, tid);
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

impl<T: Send> ConcurrentQueue<T> for WfQueue<T> {
    type Handle<'a>
        = WfHandle<'a, T>
    where
        T: 'a;

    fn register(&self) -> Result<Self::Handle<'_>, RegistrationError> {
        match self.ids.acquire() {
            Some(id) => Ok(WfHandle::new(self, id)),
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

impl<T> Drop for WfQueue<T> {
    fn drop(&mut self) {
        // Exclusive access: free the node list (values still resident
        // are dropped with their nodes). Descriptors are in-place slot
        // words now — nothing to free.
        // SAFETY: `&mut self` — no thread can still be pinned in this queue.
        let guard = unsafe { epoch::unprotected() };
        let mut cur = self.head.load(Ordering::Relaxed, guard);
        while !cur.is_null() {
            // SAFETY: exclusive access; list nodes are owned by the list.
            let node = unsafe { cur.into_owned() };
            cur = node.next.load(Ordering::Relaxed, guard);
        }
    }
}

impl<T: Send> std::fmt::Debug for WfQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WfQueue")
            .field("max_threads", &self.max_threads())
            .field("config", &self.config)
            .field("len_approx", &self.len_approx())
            .finish()
    }
}
