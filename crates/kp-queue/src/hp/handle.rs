//! Per-thread handle of the hazard-pointer queue: operation entry
//! points (Figure 4 `enq` / Figure 6 `deq`) and the §3.3 helping-policy
//! dispatch, mirroring `crate::handle`.

use std::mem::ManuallyDrop;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;
use kp_sync::atomic::Ordering;

use hazard::Participant;
use idpool::{IdGuard, SlotState};
use queue_traits::{FastPathStats, QueueHandle};

use crate::chaos_hooks::{self, inject};
use crate::config::HelpPolicy;
use crate::hp::queue::WfQueueHp;
use crate::hp::types::{
    NodeHp, FAST_ENQUEUER, H_NEXT, H_NODE, NO_DEQUEUER, TOKEN_CONSUMED, TOKEN_RECLAIM_READY,
};
use crate::pool::PoolNode;
use crate::queue::FastDeq;
use crate::reap::{Observation, ReapScan};
use crate::stats::Stats;

/// Nodes kept in the handle's private cache; surplus from a freelist
/// steal goes back to the shared pool.
const LOCAL_CAP: usize = 32;

/// A registered thread's handle to a [`WfQueueHp`].
///
/// Owns the thread's virtual ID, its hazard-pointer record, *and* a
/// private node cache: enqueues allocate from it, refilling by stealing
/// the queue's shared freelist, so the steady-state operation path
/// performs zero heap allocations — the HP counterpart of the epoch
/// handle's `RetireCache`.
///
/// As with [`WfHandle`](crate::WfHandle), dropping the handle while its
/// operation is still pending completes the operation and leaves a
/// fresh idle descriptor behind (§3.3 "dummy descriptor on exit")
/// before the ID and the hazard record are released.
pub struct WfHpHandle<'q, T: Send> {
    queue: &'q WfQueueHp<T>,
    id: IdGuard<'q>,
    /// Manually dropped so `Drop` can *leak* the record when the handle
    /// was reaped: the reaper already quarantined it (slots nulled,
    /// parked for adoption), and a successor may have adopted it —
    /// running `Participant::drop` then would clobber the adopter's
    /// live hazards.
    participant: ManuallyDrop<Participant<'q>>,
    cursor: usize,
    rng: u64,
    /// Private node cache, refilled from the queue's shared pool.
    /// Pre-sized so pushes never allocate.
    local: Vec<*mut NodeHp<T>>,
    /// True from a dequeue's publish until its epilogue claimed the
    /// result. Lets `Drop` (after a panic unwound out of `dequeue`)
    /// distinguish a completed-but-unclaimed word — whose value node
    /// must still be consumed to finish its token gate — from an old
    /// word whose result was already taken (re-claiming that one could
    /// steal a *recycled* node's fresh value).
    deq_in_flight: bool,
    /// Fast-path CAS-failure budget; copied from the queue config,
    /// overridable per handle (see [`set_fast_path`]). `0` = slow only.
    ///
    /// [`set_fast_path`]: Self::set_fast_path
    max_fast_failures: usize,
    /// Consecutive fast-path completions since the last starvation
    /// peek (see `Config::starvation_patience`).
    fast_streak: usize,
    /// This tid's counter block in the queue (`crate::stats`).
    cells: &'q Stats,
    /// The block's fast/slow counters at registration — see
    /// `WfHandle::fast_base`.
    fast_base: FastPathStats,
    /// Panic-recovery tracker for a still-private fast-path node — the
    /// HP twin of `WfHandle::inflight`; nulled the instant the node is
    /// published.
    inflight: *mut NodeHp<T>,
    /// Reaper scan state (cursor + freeze detector, DESIGN.md §13).
    reap: ReapScan,
}

// SAFETY: the raw pointers in `local` are nodes exclusively owned by
// this handle (released through the token gate before they entered a
// pool, stolen/popped from there); moving the handle moves that
// ownership. Everything else is `Send` on its own.
unsafe impl<T: Send> Send for WfHpHandle<'_, T> {}

impl<'q, T: Send> WfHpHandle<'q, T> {
    pub(crate) fn new(queue: &'q WfQueueHp<T>, id: IdGuard<'q>, participant: Participant<'q>) -> Self {
        let tid = id.id();
        let cells = &queue.stats[tid];
        WfHpHandle {
            queue,
            id,
            participant: ManuallyDrop::new(participant),
            cursor: (tid + 1) % queue.max_threads(),
            rng: 0x9E37_79B9_7F4A_7C15 ^ ((tid as u64 + 1) << 17),
            local: Vec::with_capacity(LOCAL_CAP),
            deq_in_flight: false,
            max_fast_failures: queue.config().max_fast_failures,
            fast_streak: 0,
            cells,
            fast_base: cells.fast_path_since(&FastPathStats::default()),
            inflight: ptr::null_mut(),
            reap: ReapScan::new(
                (tid + 1) % queue.max_threads(),
                queue.config.reap_min_silence_ms,
            ),
        }
    }

    /// Overrides this handle's fast-path CAS-failure budget (the queue
    /// config's `max_fast_failures` is every handle's default). `0`
    /// pins the handle to the wait-free slow path. Lets tests and
    /// benches mix fast-path and slow-only handles on one queue.
    pub fn set_fast_path(&mut self, max_fast_failures: usize) {
        self.max_fast_failures = max_fast_failures;
    }

    /// This handle's fast/slow execution counters, read from the same
    /// per-tid cells that [`WfQueueHp::stats`] sums.
    pub fn fast_path_stats(&self) -> FastPathStats {
        self.cells.fast_path_since(&self.fast_base)
    }

    /// This handle's virtual thread ID.
    pub fn tid(&self) -> usize {
        self.id.id()
    }

    /// The queue this handle operates on.
    pub fn queue(&self) -> &'q WfQueueHp<T> {
        self.queue
    }

    /// Objects reclaimed so far through this handle's hazard record
    /// (diagnostics; proves reclamation happens without a GC).
    pub fn reclaimed(&self) -> usize {
        self.participant.reclaimed()
    }

    fn next_rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A node ready to carry `value`: recycled from the private cache or
    /// the shared freelist when possible, freshly allocated otherwise.
    fn alloc_node(&mut self, value: T, tid: usize) -> *mut NodeHp<T> {
        let node = match self.local.pop() {
            Some(n) => n,
            None => match self.steal_batch() {
                Some(n) => n,
                None => {
                    self.cells.node_allocs.bump();
                    return NodeHp::boxed(Some(value), tid);
                }
            },
        };
        self.cells.node_reuses.bump();
        // SAFETY: pooled nodes are exclusively owned (both disposal
        // tokens were observed before release — see `hp::types`). The
        // SeqCst publish that follows in the caller releases these
        // plain/Relaxed writes to any helper reading the node through
        // the descriptor word.
        unsafe {
            (*node).next.store(ptr::null_mut(), Ordering::Relaxed);
            (*node).deq_tid.store(NO_DEQUEUER, Ordering::Relaxed);
            (*node).tokens.store(0, Ordering::Relaxed);
            (*node).enq_tid = tid;
            *(*node).value.get() = Some(value);
        }
        node
    }

    /// Steals the shared freelist; keeps up to [`LOCAL_CAP`] nodes,
    /// returns one, and gives any surplus back to the pool.
    fn steal_batch(&mut self) -> Option<*mut NodeHp<T>> {
        let first = self.queue.pool().steal();
        if first.is_null() {
            return None;
        }
        // SAFETY: a stolen list is exclusively ours (see `NodePool`).
        let mut cur = unsafe { (*first).free_next() };
        while !cur.is_null() {
            // SAFETY: as above.
            let nxt = unsafe { (*cur).free_next() };
            if self.local.len() < LOCAL_CAP {
                self.local.push(cur);
            } else {
                // SAFETY: exclusively ours; hand it back for other
                // threads' refills.
                unsafe { self.queue.pool().release(cur) };
            }
            cur = nxt;
        }
        Some(first)
    }

    /// §3.3 helping-policy dispatch followed by driving our own op.
    fn run_help(&mut self, phase: i64, enqueue: bool) {
        let q = self.queue;
        let tid = self.id.id();
        let n = q.max_threads();
        match q.config().help {
            HelpPolicy::ScanAll => q.help_all(&mut self.participant, phase, tid),
            HelpPolicy::Cyclic { chunk } => {
                for j in 0..chunk.min(n) {
                    let i = (self.cursor + j) % n;
                    if i != tid {
                        q.help_index(&mut self.participant, i, phase, tid);
                    }
                }
                self.cursor = (self.cursor + chunk) % n;
            }
            HelpPolicy::RandomChunk { chunk } => {
                let start = (self.next_rand() % n as u64) as usize;
                for j in 0..chunk.min(n) {
                    let i = (start + j) % n;
                    if i != tid {
                        q.help_index(&mut self.participant, i, phase, tid);
                    }
                }
            }
        }
        if enqueue {
            q.help_enq(&mut self.participant, tid, phase, tid);
        } else {
            q.help_deq(&mut self.participant, tid, phase, tid);
        }
    }

    /// True when this operation must skip the fast path because a
    /// peer's descriptor has been pending while we kept winning it.
    /// Mirrors `WfHandle::starvation_peek` — see there for the rationale
    /// and the SeqCst justification.
    fn starvation_peek(&mut self) -> bool {
        let q = self.queue;
        let patience = q.config().starvation_patience;
        if patience == 0 || self.fast_streak < patience {
            return false;
        }
        self.fast_streak = 0;
        let n = q.max_threads();
        if self.cursor == self.id.id() {
            // Our own slot cannot starve us; rotate and stay fast.
            self.cursor = (self.cursor + 1) % n;
            return false;
        }
        // SeqCst: gates a helping obligation, like `is_still_pending`.
        let (w, _) = q.state[self.cursor].view(Ordering::SeqCst);
        if w.pending() {
            true
        } else {
            self.cursor = (self.cursor + 1) % n;
            false
        }
    }

    /// Operation prologue: the reaper-protocol obligations of a live
    /// owner (DESIGN.md §13) — mirrors `WfHandle::op_prologue`, minus
    /// the token publication (the hazard record's token was published
    /// at registration and never changes).
    ///
    /// # Panics
    ///
    /// Panics if this handle's lease was revoked by a reaper.
    #[inline]
    fn op_prologue(&mut self) {
        let q = self.queue;
        if q.config.reap_patience == 0 {
            return;
        }
        assert!(
            self.id.lease_holds(),
            "kp-queue handle reaped: the handle stayed silent past the lease \
             patience window and its virtual ID was revoked (DESIGN.md §13)"
        );
        q.state[self.id.id()].bump_beat();
    }

    /// Signals liveness without performing an operation — see
    /// [`WfHandle::keepalive`](crate::WfHandle::keepalive).
    ///
    /// # Panics
    ///
    /// Panics if the lease was already revoked.
    pub fn keepalive(&mut self) {
        self.op_prologue();
    }

    /// `enq(value)`, L61–66, preceded by the bounded fast path when
    /// enabled (DESIGN.md §12).
    ///
    /// # Panic safety
    ///
    /// Unwind-guarded like `WfHandle::enqueue`: a panic escaping the
    /// protocol completes the published operation, reclaims any
    /// still-private node, clears the hazard slots, and leaves the
    /// handle usable before resuming.
    pub fn enqueue(&mut self, value: T) {
        chaos_hooks::op_begin();
        self.op_prologue();
        let result = catch_unwind(AssertUnwindSafe(|| {
            if self.max_fast_failures > 0 {
                self.enqueue_fast_first(value);
            } else {
                self.slow_enqueue(value);
            }
            self.reap_tick();
        }));
        match result {
            Ok(()) => chaos_hooks::op_end(),
            // op_end deliberately not called: a killed operation's
            // partial step count must not be reported.
            Err(payload) => {
                self.recover_after_unwind();
                resume_unwind(payload);
            }
        }
    }

    /// The fast prologue and its demotion edges, out of line
    /// (`#[inline(never)]`) for the same codegen reason as
    /// `WfHandle::enqueue_fast_first`: inlining it into the entry point
    /// perturbed slow-only codegen.
    #[inline(never)]
    fn enqueue_fast_first(&mut self, value: T) {
        let q = self.queue;
        let tid = self.id.id();
        if !self.starvation_peek() {
            let node = self.alloc_node(value, FAST_ENQUEUER);
            // Track the private node for panic recovery until it is
            // published; the tracker itself is passed down so the
            // clear is not lost if an unwind escapes after the
            // publishing CAS.
            self.inflight = node;
            let budget = self.max_fast_failures;
            let (participant, inflight) = (&mut self.participant, &mut self.inflight);
            if q.try_fast_enqueue(participant, node, budget, inflight, tid) {
                self.fast_streak += 1;
                self.cells.fast_completions.bump();
                self.cells.enqueues.bump();
                return;
            }
            // Exhausted: every append CAS failed, so the node was
            // never published — still exclusively ours. Rebrand it
            // with our real tid and fall back to the slow path.
            self.fast_streak = 0;
            self.cells.fast_exhaustions.bump();
            // SAFETY: exclusive ownership (see above); helpers only
            // read `enq_tid` after the descriptor publish below,
            // whose SeqCst store releases this write.
            unsafe { (*node).enq_tid = tid };
            inject!("kp_hp.fast.demote");
            self.cells.slow_ops.bump();
            let phase = q.next_phase(tid); // L62
            self.slow_enqueue_publish(phase, node);
            return;
        }
        self.cells.fast_starvation_demotions.bump();
        // Demote to the slow path, which helps the starved peer (its
        // slot is at our help cursor).
        self.slow_enqueue(value);
    }

    /// The slow path proper: L61–66 with a freshly prepared node.
    fn slow_enqueue(&mut self, value: T) {
        let q = self.queue;
        let tid = self.id.id();
        self.cells.slow_ops.bump();
        let phase = q.next_phase(tid); // L62
        // Before the node is prepared, so a simulated crash here leaks
        // nothing (the value is dropped by the unwind).
        inject!("kp_hp.publish");
        let node = self.alloc_node(value, tid);
        self.slow_enqueue_publish(phase, node);
    }

    /// L63–65: publish the prepared node's descriptor and drive the
    /// enqueue to completion (shared by the slow path proper and the
    /// fast-path demotion).
    fn slow_enqueue_publish(&mut self, phase: i64, node: *mut NodeHp<T>) {
        let q = self.queue;
        let tid = self.id.id();
        // L63: publish the operation descriptor — an in-place slot
        // store, not an allocation.
        q.state[tid].publish(phase, node as usize, true);
        // Published: recovery now completes the operation through the
        // descriptor instead of reclaiming the node.
        self.inflight = ptr::null_mut();
        self.run_help(phase, true); // L64
        q.help_finish_enq(&mut self.participant); // L65
        self.cells.enqueues.bump();
    }

    /// `deq()`, L98–108, preceded by the bounded fast path when enabled
    /// (DESIGN.md §12). `None` where the paper throws `EmptyException`.
    ///
    /// # Panic safety
    ///
    /// Unwind-guarded exactly like [`enqueue`](Self::enqueue).
    pub fn dequeue(&mut self) -> Option<T> {
        chaos_hooks::op_begin();
        self.op_prologue();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let result = if self.max_fast_failures > 0 {
                self.dequeue_fast_first()
            } else {
                self.slow_dequeue()
            };
            self.reap_tick();
            result
        }));
        match result {
            Ok(result) => {
                chaos_hooks::op_end();
                result
            }
            Err(payload) => {
                self.recover_after_unwind();
                resume_unwind(payload);
            }
        }
    }

    /// The fast prologue and its demotion edges; out of line for the
    /// same codegen reason as [`enqueue_fast_first`].
    ///
    /// [`enqueue_fast_first`]: Self::enqueue_fast_first
    #[inline(never)]
    fn dequeue_fast_first(&mut self) -> Option<T> {
        let q = self.queue;
        if !self.starvation_peek() {
            let budget = self.max_fast_failures;
            match q.try_fast_dequeue(&mut self.participant, budget, self.id.id()) {
                FastDeq::Done(result) => {
                    self.fast_streak += 1;
                    self.cells.fast_completions.bump();
                    self.cells.dequeues.bump();
                    return result;
                }
                FastDeq::Exhausted => {
                    self.fast_streak = 0;
                    self.cells.fast_exhaustions.bump();
                    inject!("kp_hp.fast.demote");
                }
            }
        } else {
            self.cells.fast_starvation_demotions.bump();
        }
        self.slow_dequeue()
    }

    /// The slow path proper: L98–108.
    fn slow_dequeue(&mut self) -> Option<T> {
        let q = self.queue;
        let tid = self.id.id();
        self.cells.slow_ops.bump();
        let phase = q.next_phase(tid); // L99
        inject!("kp_hp.publish");
        // L100: publish the operation descriptor (node = null).
        q.state[tid].publish(phase, 0, false);
        self.deq_in_flight = true;
        self.run_help(phase, false); // L101
        q.help_finish_deq(&mut self.participant); // L102
        self.cells.dequeues.bump();
        // L103–107: read the result through our completed word.
        let result = Self::read_deq_result(q, tid);
        self.deq_in_flight = false;
        result
    }

    /// The L103–107 epilogue, node-hand-off edition: our completed word
    /// points at the *value node* (the sentinel that replaced the one
    /// our dequeue locked). Acquire suffices for the view — the same
    /// own-slot coherence argument as the epoch version — and the
    /// dereference needs no hazard slot: the token gate keeps the node
    /// allocated until *we* set [`TOKEN_CONSUMED`], however long ago the
    /// operation completed and the node was retired.
    fn read_deq_result(q: &WfQueueHp<T>, tid: usize) -> Option<T> {
        let (w, _) = q.state[tid].view(Ordering::Acquire);
        debug_assert!(!w.pending(), "own op must be complete");
        debug_assert!(!w.enqueue(), "descriptor must be our dequeue");
        if w.node_is_null() {
            q.stats[tid].empty_dequeues.bump();
            return None; // L104–105: linearized on an empty queue
        }
        let node = w.node_ptr::<NodeHp<T>>();
        // SAFETY (liveness): `node` cannot be freed or recycled before
        // both tokens are observed, and CONSUMED is set only on the line
        // below — by us, the unique owner of this completed dequeue.
        // SAFETY (value uniqueness): the step-2 CAS wrote `node` into
        // exactly one completed dequeue word (version tags make racing
        // step-2 writers idempotent, not duplicating), and only that
        // word's owner takes the value. The enqueuer's value write
        // happens-before via the SeqCst publish/append/step-2 chain and
        // our Acquire view.
        unsafe {
            let v = (*(*node).value.get()).take();
            let prev = (*node).tokens.fetch_or(TOKEN_CONSUMED, Ordering::AcqRel);
            if prev & TOKEN_RECLAIM_READY != 0 {
                // The hazard scan already cleared the node; disposal is
                // ours (see `hp::types::reclaim_into_pool`).
                q.pool().release(node);
            }
            // Checked in release builds on purpose: a reap-path
            // claim-and-discard racing a falsely-reaped owner's
            // epilogue must panic here, never become UB. The branch is
            // perfectly predicted.
            Some(v.expect("completed dequeue carries a value"))
        }
    }

    /// One step of the abandoned-handle reaper (DESIGN.md §13), run
    /// after every [`TICK_STRIDE`](crate::reap::TICK_STRIDE)-th
    /// completed operation when `Config::reap_patience > 0`.
    /// Mirrors `WfHandle::reap_tick`; bounded work, so the enclosing
    /// operation stays wait-free.
    fn reap_tick(&mut self) {
        let q = self.queue;
        let patience = q.config.reap_patience;
        if patience == 0 || !self.reap.tick_due() {
            return;
        }
        let tid = self.id.id();
        let n = q.max_threads();
        let v = self.reap.cursor();
        if v == tid {
            self.reap.advance(n);
            return;
        }
        let Some(view) = q.ids.inspect(v) else {
            self.reap.advance(n);
            return;
        };
        match view.state {
            SlotState::Free => self.reap.advance(n),
            SlotState::Claimed => {
                let (ctrl, phase) = q.state[v].view(Ordering::SeqCst);
                let obs = Observation::Claimed {
                    generation: view.generation,
                    beat: q.state[v].load_beat(),
                    ctrl,
                    phase,
                };
                if self.reap.frozen(obs, patience) {
                    if q.ids.begin_reap(v, view.generation) {
                        q.reap_slot(&mut self.participant, v, view.generation, tid);
                    }
                    self.reap.advance(n);
                }
            }
            SlotState::Reaping => {
                let obs = Observation::Reaping {
                    generation: view.generation,
                };
                if self.reap.frozen(obs, patience) {
                    if let Some(next_generation) = q.ids.takeover_reap(v, view.generation) {
                        self.cells.reap_takeovers.bump();
                        q.reap_slot(&mut self.participant, v, next_generation, tid);
                    }
                    self.reap.advance(n);
                }
            }
        }
    }

    /// Restores the handle's invariants after a panic escaped from
    /// inside `enqueue`/`dequeue` — the HP twin of
    /// `WfHandle::recover_after_unwind`, plus clearing the hazard
    /// slots an unwind may have left set (a stale hazard would exclude
    /// its node from reclamation forever).
    #[cold]
    fn recover_after_unwind(&mut self) {
        let q = self.queue;
        let tid = self.id.id();
        let inflight = std::mem::replace(&mut self.inflight, ptr::null_mut());
        if !inflight.is_null() {
            // SAFETY: non-null tracker ⇒ the node was never published
            // (append CAS and descriptor publish both clear it), so we
            // are its unique owner; nodes are boxed at birth
            // (`NodeHp::boxed`) and its value drops with it.
            drop(unsafe { Box::from_raw(inflight) });
        }
        let (w, phase) = q.state[tid].view(Ordering::SeqCst);
        if w.pending() {
            if w.enqueue() {
                q.help_enq(&mut self.participant, tid, phase, tid);
            } else {
                q.help_deq(&mut self.participant, tid, phase, tid);
                q.help_finish_deq(&mut self.participant);
                // Claim and discard: completes the value node's token
                // gate, which would otherwise never close.
                drop(Self::read_deq_result(q, tid));
            }
        } else if !w.enqueue() && self.deq_in_flight {
            drop(Self::read_deq_result(q, tid));
        }
        self.deq_in_flight = false;
        q.help_finish_enq(&mut self.participant);
        q.help_finish_deq(&mut self.participant);
        self.participant.clear(H_NODE);
        self.participant.clear(H_NEXT);
        self.fast_streak = 0;
    }

    /// Begins an operation but performs **no helping**, leaving the
    /// published descriptor pending — the HP twin of
    /// [`WfHandle::begin_enqueue_unhelped`]. Test infrastructure for
    /// exercising helping and reaping deterministically.
    ///
    /// [`WfHandle::begin_enqueue_unhelped`]:
    ///     crate::WfHandle::begin_enqueue_unhelped
    #[doc(hidden)]
    pub fn begin_enqueue_unhelped(&mut self, value: T) -> PendingOpHp<'_, 'q, T> {
        let q = self.queue;
        let tid = self.id.id();
        let phase = q.next_phase(tid);
        let node = self.alloc_node(value, tid);
        q.state[tid].publish(phase, node as usize, true);
        PendingOpHp {
            handle: self,
            phase,
            enqueue: true,
            done: false,
        }
    }

    /// Dequeue counterpart of [`begin_enqueue_unhelped`].
    ///
    /// [`begin_enqueue_unhelped`]: Self::begin_enqueue_unhelped
    #[doc(hidden)]
    pub fn begin_dequeue_unhelped(&mut self) -> PendingOpHp<'_, 'q, T> {
        let q = self.queue;
        let tid = self.id.id();
        let phase = q.next_phase(tid);
        q.state[tid].publish(phase, 0, false);
        PendingOpHp {
            handle: self,
            phase,
            enqueue: false,
            done: false,
        }
    }

    /// Performs a fast-path append and **skips the tail swing** — the
    /// HP twin of `WfHandle::fast_append_unswung`: the shared state a
    /// sudden death at `kp_hp.fast.swing_tail` leaves behind. The value
    /// is linearized; the lagging tail makes the next budget-1 fast
    /// enqueue demote deterministically. Test infrastructure, like
    /// [`begin_enqueue_unhelped`].
    ///
    /// [`begin_enqueue_unhelped`]: Self::begin_enqueue_unhelped
    #[doc(hidden)]
    pub fn fast_append_unswung(&mut self, value: T) {
        let q = self.queue;
        self.op_prologue();
        let node = self.alloc_node(value, FAST_ENQUEUER);
        q.append_no_swing(&mut self.participant, node, self.id.id());
    }
}

/// An in-flight operation started by
/// [`WfHpHandle::begin_enqueue_unhelped`] or
/// [`WfHpHandle::begin_dequeue_unhelped`] — the HP twin of
/// [`PendingOp`](crate::PendingOp). No guard field: hazard pointers
/// protect per-dereference, not per-scope.
#[doc(hidden)]
pub struct PendingOpHp<'h, 'q, T: Send> {
    handle: &'h mut WfHpHandle<'q, T>,
    phase: i64,
    enqueue: bool,
    done: bool,
}

impl<T: Send> PendingOpHp<'_, '_, T> {
    /// True while the operation has not been linearized-and-acknowledged
    /// by anyone (owner or helper).
    pub fn is_pending(&self) -> bool {
        self.handle
            .queue
            .is_still_pending(self.handle.tid(), self.phase)
    }

    /// The phase number the operation was published with.
    pub fn phase(&self) -> i64 {
        self.phase
    }

    fn complete(&mut self) -> Option<T> {
        debug_assert!(!self.done);
        self.done = true;
        let q = self.handle.queue;
        let tid = self.handle.id.id();
        if self.enqueue {
            q.help_enq(&mut self.handle.participant, tid, self.phase, tid);
            q.help_finish_enq(&mut self.handle.participant);
            self.handle.cells.enqueues.bump();
            None
        } else {
            q.help_deq(&mut self.handle.participant, tid, self.phase, tid);
            q.help_finish_deq(&mut self.handle.participant);
            self.handle.cells.dequeues.bump();
            WfHpHandle::read_deq_result(q, tid)
        }
    }

    /// Resumes the stalled owner: completes the operation (help may
    /// already have done all the work) and returns the dequeued value,
    /// if this was a dequeue.
    pub fn finish(mut self) -> Option<T> {
        self.complete()
    }

    /// Walks away without completing — see
    /// [`PendingOp::abandon`](crate::PendingOp::abandon).
    pub fn abandon(mut self) {
        self.done = true;
    }
}

impl<T: Send> Drop for PendingOpHp<'_, '_, T> {
    fn drop(&mut self) {
        if !self.done {
            drop(self.complete());
        }
    }
}

impl<T: Send> Drop for WfHpHandle<'_, T> {
    fn drop(&mut self) {
        // §3.3 "dummy descriptor on exit" — same rationale and order as
        // `WfHandle`'s Drop.
        let q = self.queue;
        let tid = self.id.id();
        // Exit counts as an operation under the lease protocol — see
        // `WfHandle::drop` for why the liveness bump precedes the check.
        if q.config.reap_patience != 0 {
            q.state[tid].bump_beat_shared();
        }
        if !self.id.lease_holds() {
            // Reaped out from under us: the reaper drove the descriptor
            // idle, quarantined our hazard record (now adoptable — we
            // must NOT run `Participant::drop` on it, see the field
            // doc), and the slot may belong to a successor. Only the
            // private node cache is still ours.
            for node in self.local.drain(..) {
                // SAFETY: cached nodes are exclusively ours.
                unsafe { q.pool().release(node) };
            }
            return;
        }
        // Retract the published record token before the ID can be
        // recycled: a later reap of this slot must not quarantine our
        // (dropped, possibly re-adopted) record.
        q.hp_tokens[tid].store(0, Ordering::SeqCst);
        let (w, phase) = q.state[tid].view(Ordering::SeqCst);
        if w.pending() {
            if w.enqueue() {
                q.help_enq(&mut self.participant, tid, phase, tid);
                q.help_finish_enq(&mut self.participant);
            } else {
                q.help_deq(&mut self.participant, tid, phase, tid);
                q.help_finish_deq(&mut self.participant);
                // Claim (and discard) the result so the node's token
                // gate completes and conservation stays exact.
                drop(Self::read_deq_result(q, tid));
            }
        } else if self.deq_in_flight {
            // A panic unwound out of `dequeue` after the operation
            // completed but before the epilogue: the word is ours and
            // unclaimed. Claim it so the value node's token gate
            // completes (otherwise the node would sit in limbo forever).
            drop(Self::read_deq_result(q, tid));
        }
        // Drive tail (and, for symmetry, head) past any node of ours —
        // see `WfHandle::drop` for why the dummy must wait for this.
        q.help_finish_enq(&mut self.participant);
        q.help_finish_deq(&mut self.participant);
        // Fresh idle descriptor (version-bumped in place).
        q.state[tid].reset();
        // Hand the private node cache back to the shared pool.
        for node in self.local.drain(..) {
            // SAFETY: cached nodes are exclusively ours.
            unsafe { q.pool().release(node) };
        }
        // SAFETY: dropped exactly once — the reaped path above returns
        // early (leaking the quarantined record on purpose) and nothing
        // else touches the `ManuallyDrop`. The participant clears its
        // slots and parks leftover retirees for adoption; `self.id`
        // then drops after this body, releasing the virtual ID.
        unsafe { ManuallyDrop::drop(&mut self.participant) };
    }
}

impl<T: Send> QueueHandle<T> for WfHpHandle<'_, T> {
    fn enqueue(&mut self, value: T) {
        WfHpHandle::enqueue(self, value);
    }

    fn dequeue(&mut self) -> Option<T> {
        WfHpHandle::dequeue(self)
    }

    fn fast_path_stats(&self) -> Option<FastPathStats> {
        Some(WfHpHandle::fast_path_stats(self))
    }
}
