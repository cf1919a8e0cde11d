//! The per-thread handle: operation entry points (paper Figure 4 `enq`,
//! Figure 6 `deq`) and the §3.3 helping-policy dispatch, written once
//! for both reclamation backends.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr;

use kp_sync::atomic::Ordering;

use idpool::{IdGuard, SlotState};
use queue_traits::{FastPathStats, QueueHandle};

use crate::chaos_hooks::{self, inject};
use crate::config::HelpPolicy;
use crate::node::{Node, FAST_ENQUEUER};
use crate::queue::{FastDeq, KpQueue};
use crate::reap::{Observation, ReapScan};
use crate::reclaim::{Reclaim, H_NEXT, H_NODE};
use crate::stats::Stats;

/// Values a batch operation completes under one protection before it
/// renews it (see [`KpHandle::enqueue_batch`]). An epoch repin is one
/// store and one load of the epoch word, small next to 32 operations.
const REPIN_EVERY: usize = 32;

/// A registered thread's handle to a [`KpQueue`] — used as
/// [`WfHandle`](crate::WfHandle) or [`WfHpHandle`](crate::WfHpHandle).
///
/// Owns a virtual thread ID (`TID` in the paper's listings) for the
/// handle's lifetime; dropping the handle returns the ID to the pool.
/// Operations take `&mut self` because a handle embodies *one* thread of
/// the algorithm — the queue itself may be shared freely.
///
/// The handle also owns its backend state (an epoch retire cache, or a
/// hazard record) and its node source (§3.3 "reuse the descriptor
/// objects" taken to the node level): enqueues take recycled nodes —
/// the handle's own mature retirements first under epochs, then a chain
/// stolen whole from the queue's shared pool — making the steady-state
/// operation path allocation-free.
///
/// Dropping a handle whose operation is still pending (a panic unwound
/// out of `enqueue`/`dequeue` mid-protocol) first drives that operation
/// to completion and then publishes a fresh idle descriptor — the
/// paper's §3.3 "dummy descriptor on exit". Without this, releasing the
/// virtual ID while the descriptor still references an un-appended node
/// could wedge every other thread: a helper may append the orphaned
/// node, after which `help_finish_enq`'s descriptor identity check
/// (L91) can never pass and the tail never advances.
pub struct KpHandle<'q, T: Send, R: Reclaim> {
    queue: &'q KpQueue<T, R>,
    id: IdGuard<'q>,
    /// The backend's per-handle state.
    pub(crate) local: R::HandleState<'q, T>,
    /// Next state-array index to examine under `HelpPolicy::Cyclic`.
    cursor: usize,
    /// xorshift64* state for `HelpPolicy::RandomChunk`.
    rng: u64,
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
    /// The block's fast/slow counters when this handle registered, so
    /// [`fast_path_stats`](Self::fast_path_stats) reports this handle's
    /// share of a block the tid's earlier holders also wrote.
    fast_base: FastPathStats,
    /// Panic-recovery tracker: a node allocated for the fast path that
    /// is still *private* (never published by an append CAS or a
    /// descriptor publish). If an unwind escapes the operation while
    /// this is non-null, `recover_after_unwind` reclaims it; it is
    /// nulled the instant the node becomes public.
    inflight: *mut Node<T>,
    /// True from a slow dequeue's publish until its epilogue claimed
    /// the result; lets recovery distinguish a completed-but-unclaimed
    /// word (whose value must still be taken and its node consumed)
    /// from an old word whose value node may long be recycled.
    deq_in_flight: bool,
    /// Reaper scan state (cursor + freeze detector, DESIGN.md §13).
    reap: ReapScan,
}

// SAFETY: the only non-`Send` field is `inflight`, a node that is by
// invariant *private* to this handle whenever it is non-null (it is
// cleared the instant the node is published); moving the handle moves
// that exclusive ownership with it. The backend state is `Send` by the
// `Reclaim` bound, and everything else is `Send`.
unsafe impl<T: Send, R: Reclaim> Send for KpHandle<'_, T, R> {}

impl<'q, T: Send, R: Reclaim> KpHandle<'q, T, R> {
    pub(crate) fn new(
        queue: &'q KpQueue<T, R>,
        id: IdGuard<'q>,
        local: R::HandleState<'q, T>,
    ) -> Self {
        let tid = id.id();
        let cells = &queue.stats[tid];
        KpHandle {
            queue,
            id,
            local,
            cursor: (tid + 1) % queue.max_threads(),
            // Any nonzero seed works; derive from the slot for variety.
            rng: 0x9E37_79B9_7F4A_7C15 ^ ((tid as u64 + 1) << 17),
            max_fast_failures: queue.config.max_fast_failures,
            fast_streak: 0,
            cells,
            fast_base: cells.fast_path_since(&FastPathStats::default()),
            inflight: ptr::null_mut(),
            deq_in_flight: false,
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
    /// per-tid cells that [`KpQueue::stats`] sums.
    pub fn fast_path_stats(&self) -> FastPathStats {
        self.cells.fast_path_since(&self.fast_base)
    }

    /// This handle's virtual thread ID (index into the `state` array).
    pub fn tid(&self) -> usize {
        self.id.id()
    }

    /// The queue this handle operates on.
    pub fn queue(&self) -> &'q KpQueue<T, R> {
        self.queue
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64*: tiny, decent-quality generator; no external
        // dependency needed in the hot path.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A node ready to carry `value`: recycled from the backend's node
    /// source when one is available, freshly allocated otherwise.
    fn alloc_node(&mut self, value: T, tid: usize) -> *mut Node<T> {
        if let Some(node) = R::pop_node(&mut self.local, &self.queue.pool) {
            self.cells.node_reuses.bump();
            // SAFETY: the node source hands out only nodes no other
            // thread can reach (matured, or released by the token gate),
            // and the caller publishes the node with a SeqCst store/CAS.
            unsafe { Node::reuse(node, value, tid) };
            node
        } else {
            self.cells.node_allocs.bump();
            Node::boxed(Some(value), tid)
        }
    }

    /// Applies the configured helping policy for an operation running at
    /// `phase`, then drives the handle's *own* operation to completion.
    fn run_help(&mut self, phase: i64, enqueue: bool, guard: &R::Guard) {
        let q = self.queue;
        let tid = self.id.id();
        let n = q.max_threads();
        match q.config.help {
            HelpPolicy::ScanAll => {
                // Base algorithm: the L64/L101 `help(phase)` call
                // (L36–47), helping every pending operation no younger
                // than ours. The scan includes our own entry, so the
                // operation is complete when it returns.
                for i in 0..n {
                    q.help_index(&mut self.local, guard, i, phase, tid);
                }
            }
            HelpPolicy::Cyclic { chunk } => {
                // §3.3 optimization 1: examine `chunk` entries starting
                // at the cyclic cursor (in addition to our own entry).
                for j in 0..chunk.min(n) {
                    let i = (self.cursor + j) % n;
                    if i != tid {
                        q.help_index(&mut self.local, guard, i, phase, tid);
                    }
                }
                self.cursor = (self.cursor + chunk) % n;
            }
            HelpPolicy::RandomChunk { chunk } => {
                // §3.3 alternative: random chunk (probabilistic
                // wait-freedom).
                let start = (self.next_rand() % n as u64) as usize;
                for j in 0..chunk.min(n) {
                    let i = (start + j) % n;
                    if i != tid {
                        q.help_index(&mut self.local, guard, i, phase, tid);
                    }
                }
            }
        }
        // Under the chunked policies our own entry may not have been
        // visited; drive our own operation to completion. (Redundant but
        // harmless under ScanAll: `is_still_pending` fails immediately.)
        if enqueue {
            q.help_enq(&self.local, tid, phase, tid);
        } else {
            q.help_deq(&mut self.local, guard, tid, phase, tid);
        }
    }

    /// True when this operation must skip the fast path because a
    /// peer's descriptor has been pending while we kept winning it.
    /// Peeks one `state` slot (at the cyclic help cursor) every
    /// `starvation_patience` consecutive fast completions; on a hit the
    /// caller demotes to the slow path, whose `Cyclic` help chunk
    /// starts at that very cursor — the demotion directly helps the
    /// starved peer.
    fn starvation_peek(&mut self) -> bool {
        let q = self.queue;
        let patience = q.config.starvation_patience;
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
        // SeqCst: this read gates a helping obligation, exactly like
        // `is_still_pending` — an Acquire-stale idle word would let a
        // fast handle overlook a peer pending in the SC order.
        let (w, _) = q.state[self.cursor].view(Ordering::SeqCst);
        if w.pending() {
            true
        } else {
            self.cursor = (self.cursor + 1) % n;
            false
        }
    }

    /// Operation prologue shared by every entry point: the
    /// reaper-protocol obligations of a live owner (DESIGN.md §13).
    /// One predictable branch when the reaper is disabled.
    ///
    /// # Panics
    ///
    /// Panics if this handle's lease was revoked by a reaper — the
    /// handle was presumed dead after staying silent for a peer's whole
    /// patience window (the lease contract). The handle is poisoned;
    /// the queue itself is unharmed and the virtual ID has already been
    /// (or is being) recycled.
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
        let tid = self.id.id();
        q.state[tid].bump_beat();
        R::announce(&mut self.local, &q.tokens[tid]);
    }

    /// Signals liveness without performing an operation. A handle that
    /// can go quiet for long stretches (while other threads keep
    /// operating) must call this — or complete an operation — at least
    /// once per peer patience window when the queue runs with
    /// [`Config::with_reaper`](crate::Config::with_reaper), or it will
    /// be presumed dead and reaped. No-op when the reaper is disabled.
    ///
    /// # Panics
    ///
    /// Panics if the lease was already revoked (see `enqueue`).
    pub fn keepalive(&mut self) {
        self.op_prologue();
    }

    /// `enq(value)`, Figure 4 L61–66, preceded by the bounded fast path
    /// when enabled (DESIGN.md §12).
    ///
    /// # Panic safety
    ///
    /// The body runs under an unwind guard: if a panic escapes from
    /// anywhere inside the protocol (including the fast path and the
    /// fast→slow demotion window), the guard completes the published
    /// operation, reclaims any still-private node, and leaves both the
    /// descriptor and the handle reusable before the panic resumes.
    pub fn enqueue(&mut self, value: T) {
        chaos_hooks::op_begin();
        self.guarded(|h, guard| h.enqueue_one(value, guard));
        // Not reached when a panic escaped: a killed operation never
        // completes, so its partial step count must not be reported.
        chaos_hooks::op_end();
    }

    /// Runs `body` as one guarded entry: the reaper prologue, the
    /// protection, `body` and the reap tick under an unwind guard.
    ///
    /// The prologue runs strictly before the pin: the epoch reaper's
    /// publisher scan relies on every pinned handle having its epoch
    /// token visible first, so a live pin on a thread shared with a
    /// reaped handle is never quarantined (DESIGN.md §13.4). The
    /// protection is taken before any descriptor is published and held
    /// until the result is read — under epochs every node the operation
    /// can reference is retired (if at all) during this pin — and
    /// *outside* the unwind guard, because recovery walks those very
    /// nodes and must run under the original pin. If a panic escapes,
    /// `recover_after_unwind` completes the published operation before
    /// the panic resumes.
    #[inline]
    fn guarded<U>(&mut self, body: impl FnOnce(&mut Self, &mut R::Guard) -> U) -> U {
        self.op_prologue();
        let mut guard = R::pin();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let out = body(self, &mut guard);
            self.reap_tick(&guard);
            out
        }));
        match result {
            Ok(out) => out,
            Err(payload) => {
                self.recover_after_unwind(&guard);
                resume_unwind(payload)
            }
        }
    }

    /// One enqueue under the caller's protection: the bounded fast path
    /// first when enabled.
    fn enqueue_one(&mut self, value: T, guard: &R::Guard) {
        if self.max_fast_failures > 0 {
            self.enqueue_fast_first(value, guard);
        } else {
            self.slow_enqueue(value, guard);
        }
    }

    /// The fast prologue and its demotion edges, kept out of line
    /// (`#[inline(never)]`) so a `max_fast_failures == 0` build path
    /// keeps the pre-fast-path code shape of `enqueue` — inlining this
    /// into the entry point measurably perturbed slow-only codegen.
    #[inline(never)]
    fn enqueue_fast_first(&mut self, value: T, guard: &R::Guard) {
        let q = self.queue;
        let tid = self.id.id();
        if !self.starvation_peek() {
            let node = self.alloc_node(value, FAST_ENQUEUER);
            // Track the private node for panic recovery until it is
            // published (append CAS or descriptor publish). The tracker
            // itself is passed down so the clear is not lost if an
            // unwind escapes after the publishing CAS.
            self.inflight = node;
            let budget = self.max_fast_failures;
            if q.try_fast_enqueue(&self.local, node, budget, &mut self.inflight, tid) {
                self.fast_streak += 1;
                self.cells.fast_completions.bump();
                self.cells.enqueues.bump();
                return;
            }
            // Exhausted: every append CAS failed, so the node was
            // never published — it is still exclusively ours.
            // Rebrand it with our real tid and fall back to the
            // wait-free slow path.
            self.fast_streak = 0;
            self.cells.fast_exhaustions.bump();
            // SAFETY: exclusive ownership (see above); helpers only
            // read `enq_tid` after the descriptor publish below,
            // whose SeqCst store releases this write.
            unsafe { (*node).enq_tid = tid };
            inject!(R::SITES.fast_demote);
            self.cells.slow_ops.bump();
            let phase = q.next_phase(tid); // L62
            self.slow_enqueue_publish(phase, node, guard);
            return;
        }
        self.cells.fast_starvation_demotions.bump();
        // Demote to the slow path, which helps the starved peer (its
        // slot is at our help cursor).
        self.slow_enqueue(value, guard);
    }

    /// The slow path proper: Figure 4 L61–66 with a freshly prepared
    /// node.
    fn slow_enqueue(&mut self, value: T, guard: &R::Guard) {
        let q = self.queue;
        let tid = self.id.id();
        self.cells.slow_ops.bump();
        let phase = q.next_phase(tid); // L62
        // The injection point sits before the node is prepared so a
        // simulated crash here leaks nothing: the value is still a plain
        // local, dropped by the unwind.
        inject!(R::SITES.publish);
        let node = self.alloc_node(value, tid);
        self.slow_enqueue_publish(phase, node, guard);
    }

    /// L63–65: publish the prepared node's descriptor and drive the
    /// enqueue to completion (shared by the slow path proper and the
    /// fast-path demotion).
    fn slow_enqueue_publish(&mut self, phase: i64, node: *mut Node<T>, guard: &R::Guard) {
        let q = self.queue;
        let tid = self.id.id();
        // L63: publish the operation descriptor — an in-place slot
        // store, not an allocation (see `StateSlot::publish`).
        q.state[tid].publish(phase, node as usize, true);
        // Published: from here unwind recovery completes the operation
        // through the descriptor instead of reclaiming the node.
        self.inflight = ptr::null_mut();
        self.run_help(phase, true, guard); // L64
        q.help_finish_enq(&self.local); // L65 (see the paper's L65 argument)
        self.cells.enqueues.bump();
    }

    /// `deq()`, Figure 6 L98–108, preceded by the bounded fast path
    /// when enabled (DESIGN.md §12). Returns `None` where the paper
    /// throws `EmptyException`.
    ///
    /// # Panic safety
    ///
    /// Unwind-guarded exactly like [`enqueue`]: a panic escaping from
    /// inside the protocol completes (and discards the result of) the
    /// published operation before resuming, leaving the handle usable.
    ///
    /// [`enqueue`]: Self::enqueue
    pub fn dequeue(&mut self) -> Option<T> {
        chaos_hooks::op_begin();
        let value = self.guarded(|h, guard| h.dequeue_one(guard));
        chaos_hooks::op_end();
        value
    }

    /// One dequeue under the caller's protection: the bounded fast path
    /// first when enabled.
    fn dequeue_one(&mut self, guard: &R::Guard) -> Option<T> {
        if self.max_fast_failures > 0 {
            self.dequeue_fast_first(guard)
        } else {
            self.slow_dequeue(guard)
        }
    }

    /// The fast prologue and its demotion edges; out of line for the
    /// same codegen reason as [`enqueue_fast_first`].
    ///
    /// [`enqueue_fast_first`]: Self::enqueue_fast_first
    #[inline(never)]
    fn dequeue_fast_first(&mut self, guard: &R::Guard) -> Option<T> {
        let q = self.queue;
        if !self.starvation_peek() {
            let (budget, tid) = (self.max_fast_failures, self.id.id());
            match q.try_fast_dequeue(&mut self.local, guard, budget, tid) {
                FastDeq::Done(result) => {
                    self.fast_streak += 1;
                    self.cells.fast_completions.bump();
                    self.cells.dequeues.bump();
                    return result;
                }
                FastDeq::Exhausted => {
                    self.fast_streak = 0;
                    self.cells.fast_exhaustions.bump();
                    inject!(R::SITES.fast_demote);
                }
            }
        } else {
            self.cells.fast_starvation_demotions.bump();
        }
        self.slow_dequeue(guard)
    }

    /// The slow path proper: Figure 6 L98–108.
    fn slow_dequeue(&mut self, guard: &R::Guard) -> Option<T> {
        let q = self.queue;
        let tid = self.id.id();
        self.cells.slow_ops.bump();
        let phase = q.next_phase(tid); // L99
        inject!(R::SITES.publish);
        // L100: publish the operation descriptor (node = null).
        q.state[tid].publish(phase, 0, false);
        // From publish until the epilogue claims the result, an unwind
        // leaves a dequeue whose value must still be taken-and-dropped.
        self.deq_in_flight = true;
        self.run_help(phase, false, guard); // L101
        q.help_finish_deq(&mut self.local, guard, tid); // L102
        self.cells.dequeues.bump();
        // L103–107: read the result through our completed descriptor.
        let result = Self::read_deq_result(q, tid);
        self.deq_in_flight = false;
        result
    }

    /// The L103–107 epilogue, node-hand-off edition: our completed word
    /// names the *value node* (the sentinel that replaced the one our
    /// dequeue locked), or null for an empty result.
    ///
    /// Ordering relaxation: Acquire, not SeqCst. This reads our *own*
    /// slot after our operation completed; the completing transition
    /// (ours or a helper's SeqCst CAS that our `is_still_pending` loop
    /// already observed) happens-before this load via the SeqCst loop
    /// exit, and coherence forbids reading anything older. No helping
    /// decision hangs off this read.
    fn read_deq_result(q: &KpQueue<T, R>, tid: usize) -> Option<T> {
        let (w, _) = q.state[tid].view(Ordering::Acquire);
        debug_assert!(!w.pending(), "operation must be complete");
        debug_assert!(!w.enqueue(), "descriptor must be ours (dequeue)");
        if w.node_is_null() {
            q.stats[tid].empty_dequeues.bump();
            return None; // L104–105: linearized on an empty queue
        }
        let node = w.node_ptr::<Node<T>>();
        // SAFETY (liveness): the backend keeps the value node allocated
        // until we consume it — every caller runs under the protection
        // taken before the operation was published, and the node is
        // retired only after its step-2 hand-off (`Backend::consume`).
        // SAFETY (uniqueness of the take): the step-2 CAS wrote `node`
        // into exactly one completed dequeue word (version tags make
        // racing step-2 writers idempotent, not duplicating) — the
        // word of the operation whose lock made `node` the successor of
        // the sentinel it removed — and only that word's owner executes
        // this line for it. The enqueuer's value write happens-before
        // via the SeqCst publish/append/step-2 chain and our Acquire
        // view.
        let value = unsafe { (*(*node).value.get()).take() };
        // SAFETY: we are the unique owner of the completed word.
        unsafe { R::consume(node, &q.pool) };
        // Checked in release builds on purpose: with the reaper in the
        // picture, a claim-and-discard by `KpQueue::reap_slot` racing a
        // falsely-reaped (preempted, not dead) owner's epilogue would
        // make this second take() return None — that must surface as a
        // panic, never as UB. The branch is perfectly predicted.
        Some(value.expect("value already taken: dequeue-owner uniqueness violated"))
    }

    /// One step of the abandoned-handle reaper (DESIGN.md §13), run
    /// after every [`TICK_STRIDE`](crate::reap::TICK_STRIDE)-th
    /// completed operation when `Config::reap_patience > 0`.
    /// Examines exactly one peer slot; bounded work, so the enclosing
    /// operation stays wait-free.
    fn reap_tick(&mut self, guard: &R::Guard) {
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
                // The full liveness snapshot: lease generation (slot
                // churn), heartbeat (owner-side progress), ctrl word
                // with its version tag (helper-side progress) and
                // phase. SeqCst view: the post-freeze `reap_slot`
                // re-reads authoritatively, so Acquire would do, but
                // this is off the hot path and SeqCst keeps the audit
                // uniform with the other descriptor reads.
                let (ctrl, phase) = q.state[v].view(Ordering::SeqCst);
                let obs = Observation::Claimed {
                    generation: view.generation,
                    beat: q.state[v].load_beat(),
                    ctrl,
                    phase,
                };
                if self.reap.frozen(obs, patience) {
                    // Frozen for our whole patience window: revoke the
                    // lease. The CAS fails iff the owner (or another
                    // reaper) moved the slot since our snapshot — then
                    // it was not frozen after all and we just move on.
                    if q.ids.begin_reap(v, view.generation) {
                        q.reap_slot(&mut self.local, guard, v, view.generation, tid);
                    }
                    self.reap.advance(n);
                }
            }
            SlotState::Reaping => {
                // Watch the reaper itself; its only progress signal is
                // the lease generation (see `Observation::Reaping`).
                let obs = Observation::Reaping {
                    generation: view.generation,
                };
                if self.reap.frozen(obs, patience) {
                    if let Some(next_generation) = q.ids.takeover_reap(v, view.generation) {
                        self.cells.reap_takeovers.bump();
                        q.reap_slot(&mut self.local, guard, v, next_generation, tid);
                    }
                    self.reap.advance(n);
                }
            }
        }
    }

    /// Restores the handle's invariants after a panic escaped from
    /// inside an operation. On return the descriptor is idle, no node
    /// is leaked or double-owned, no hazard slot is left set (a stale
    /// hazard would exclude its node from reclamation forever), and the
    /// handle is usable.
    ///
    /// Must run under the protection the operation itself was running
    /// under (`guard` is the one the entry point created before
    /// entering the unwind guard): completing a pending dequeue reads
    /// nodes whose epoch liveness argument is "retired during this
    /// pin".
    #[cold]
    fn recover_after_unwind(&mut self, guard: &R::Guard) {
        let q = self.queue;
        let tid = self.id.id();
        // A still-private fast-path node: never published (the append
        // CAS clears the tracker the instant it succeeds, the slow
        // publish right after the descriptor store), so we are its
        // unique owner and nothing in the queue references it.
        let inflight = std::mem::replace(&mut self.inflight, ptr::null_mut());
        if !inflight.is_null() {
            // SAFETY: unique ownership per the tracker invariant above;
            // every node is a `Box` (fresh or recycled) and its value
            // drops with it.
            drop(unsafe { Box::from_raw(inflight) });
        }
        let (w, phase) = q.state[tid].view(Ordering::SeqCst);
        if w.pending() {
            // Died mid-protocol with a published descriptor: finish the
            // operation the same way `Drop` would; the caller will never
            // see a dequeue's result, so it is claimed and discarded.
            drop(self.finish_own(guard, w.enqueue(), phase));
        } else if !w.enqueue() && self.deq_in_flight {
            // The dequeue completed (possibly via helpers) but the
            // unwind hit before the epilogue claimed the value.
            drop(Self::read_deq_result(q, tid));
        }
        self.deq_in_flight = false;
        // Leave head and tail fully advanced — the next operation (ours
        // or anyone's) starts from a quiescent queue, and an enqueue
        // that died between steps 2 and 3 gets its tail swing now.
        q.help_finish_enq(&self.local);
        q.help_finish_deq(&mut self.local, guard, tid);
        R::clear(&self.local, H_NODE);
        R::clear(&self.local, H_NEXT);
        self.fast_streak = 0;
    }

    /// Begins an operation but performs **no helping**, leaving the
    /// published descriptor pending — as if the thread stalled right
    /// after the paper's L63/L100. Test infrastructure for exercising
    /// the helping mechanism deterministically; not part of the public
    /// API surface.
    #[doc(hidden)]
    pub fn begin_enqueue_unhelped(&mut self, value: T) -> KpPendingOp<'_, 'q, T, R> {
        self.begin_unhelped(Some(value))
    }

    /// Dequeue counterpart of [`begin_enqueue_unhelped`].
    ///
    /// [`begin_enqueue_unhelped`]: Self::begin_enqueue_unhelped
    #[doc(hidden)]
    pub fn begin_dequeue_unhelped(&mut self) -> KpPendingOp<'_, 'q, T, R> {
        self.begin_unhelped(None)
    }

    /// Publishes an enqueue of `value`, or a dequeue for `None`.
    fn begin_unhelped(&mut self, value: Option<T>) -> KpPendingOp<'_, 'q, T, R> {
        let (q, tid) = (self.queue, self.id.id());
        let guard = R::pin();
        let phase = q.next_phase(tid);
        let enqueue = value.is_some();
        let node = value.map_or(ptr::null_mut(), |v| self.alloc_node(v, tid));
        q.state[tid].publish(phase, node as usize, enqueue);
        KpPendingOp {
            handle: self,
            guard,
            phase,
            enqueue,
            done: false,
        }
    }

    /// Drives this handle's own published operation at `phase` to
    /// completion, exactly as the owner would (L64–65 / L101–107
    /// without the helping scan); returns a dequeue's value.
    fn finish_own(&mut self, guard: &R::Guard, enqueue: bool, phase: i64) -> Option<T> {
        let (q, tid) = (self.queue, self.id.id());
        if enqueue {
            q.help_enq(&self.local, tid, phase, tid);
            q.help_finish_enq(&self.local);
            None
        } else {
            q.help_deq(&mut self.local, guard, tid, phase, tid);
            q.help_finish_deq(&mut self.local, guard, tid);
            Self::read_deq_result(q, tid)
        }
    }

    /// Enqueues every value of `batch` in order (the queue is unbounded,
    /// so nothing is ever refused), paying the per-call fixed costs —
    /// reaper prologue, epoch pin, unwind guard, reap tick — once for
    /// the whole batch instead of once per value. Each value is still
    /// its own operation of the protocol (own fast-path attempt or
    /// phase/descriptor publish), so the per-operation wait-freedom
    /// bound is unchanged; strictly the entry/exit overhead is
    /// amortized.
    ///
    /// The protection is renewed every 32 values, between two completed
    /// operations, so a batch delays node reclamation by at most 32
    /// values rather than by the whole batch. An epoch pin held across
    /// the batch would also stall the batch's own retirements: while
    /// this thread stays pinned behind the global epoch, no nudge (ours
    /// or a peer's) can move the epoch the two steps a node retired
    /// here needs to mature.
    ///
    /// Returns how many values were enqueued (always `batch.len()`).
    ///
    /// # Panic safety
    ///
    /// As [`enqueue`]: an unwind from inside the protocol completes the
    /// published operation before resuming. Values of the batch not yet
    /// submitted when the panic struck are dropped with the drain.
    ///
    /// [`enqueue`]: Self::enqueue
    pub fn enqueue_batch(&mut self, batch: &mut Vec<T>) -> usize {
        let n = batch.len();
        if n == 0 {
            return 0;
        }
        // One guarded entry, so one liveness beat, covers the batch.
        self.guarded(|h, guard| {
            for (i, value) in batch.drain(..).enumerate() {
                // Between two completed operations nothing this handle
                // holds points into the queue, so renewing the pin is
                // what a scalar caller's unpin and pin would do.
                if i > 0 && i % REPIN_EVERY == 0 {
                    R::repin(guard);
                }
                // The watchdog still sees one bounded operation per
                // value — batching must not relax the O(n) step budget.
                chaos_hooks::op_begin();
                h.enqueue_one(value, guard);
                chaos_hooks::op_end();
            }
        });
        n
    }

    /// Dequeues up to `max` immediately available values into `out`,
    /// stopping at the first empty observation; returns how many were
    /// taken. The batched twin of [`enqueue_batch`]: per-call fixed
    /// costs are paid once, each value is still its own bounded
    /// operation, and the protection is renewed every 32 values. A
    /// consumer retires one node per value, so without the renewal
    /// every sentinel this batch unlinks would stay immature until the
    /// batch ended.
    ///
    /// [`enqueue_batch`]: Self::enqueue_batch
    pub fn dequeue_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        self.guarded(|h, guard| {
            let mut taken = 0;
            while taken < max {
                if taken > 0 && taken % REPIN_EVERY == 0 {
                    R::repin(guard);
                }
                chaos_hooks::op_begin();
                let value = h.dequeue_one(guard);
                chaos_hooks::op_end();
                match value {
                    Some(v) => {
                        out.push(v);
                        taken += 1;
                    }
                    None => break,
                }
            }
            taken
        })
    }

    /// Performs a fast-path append and **skips the tail swing**: the
    /// shared state a thread killed at the `fast.swing_tail` site
    /// leaves behind when nothing runs its unwind recovery (sudden
    /// death). The value is linearized — the append CAS is the
    /// linearization point — but the tail lags until someone's
    /// `help_finish_enq` fixes it, which makes the *next* budget-1 fast
    /// enqueue demote deterministically. Test infrastructure, like
    /// [`begin_enqueue_unhelped`].
    ///
    /// [`begin_enqueue_unhelped`]: Self::begin_enqueue_unhelped
    #[doc(hidden)]
    pub fn fast_append_unswung(&mut self, value: T) {
        let q = self.queue;
        // Prologue before pin, as in `enqueue` (publisher-scan order).
        self.op_prologue();
        let _guard = R::pin();
        let node = self.alloc_node(value, FAST_ENQUEUER);
        q.append_no_swing(&self.local, node, self.id.id());
    }
}

impl<T: Send, R: Reclaim> QueueHandle<T> for KpHandle<'_, T, R> {
    fn enqueue(&mut self, value: T) {
        KpHandle::enqueue(self, value);
    }

    fn dequeue(&mut self) -> Option<T> {
        KpHandle::dequeue(self)
    }

    fn try_enqueue_batch(&mut self, batch: &mut Vec<T>) -> usize {
        KpHandle::enqueue_batch(self, batch)
    }

    fn dequeue_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        KpHandle::dequeue_batch(self, out, max)
    }

    fn fast_path_stats(&self) -> Option<FastPathStats> {
        Some(KpHandle::fast_path_stats(self))
    }
}

impl<T: Send, R: Reclaim> Drop for KpHandle<'_, T, R> {
    fn drop(&mut self) {
        // §3.3 "dummy descriptor on exit". The ID must not return to the
        // pool while `state[tid]` still describes an unfinished
        // operation: a successor thread reusing the slot would replace
        // the descriptor, and if a helper had meanwhile appended the
        // orphaned enqueue node, no descriptor matching it would ever
        // exist again — `help_finish_enq` could then never swing the
        // tail past it (a total wedge). So: finish our own operation
        // exactly as the owner would, discard an unclaimed dequeue
        // result, and leave a pristine descriptor behind.
        let q = self.queue;
        let tid = self.id.id();
        let guard = R::pin();
        // Exit counts as an operation under the lease protocol: signal
        // liveness first, so a reaper part-way through accumulating
        // silence against this slot restarts its patience window and
        // cannot revoke the lease from under the cleanup below. The
        // shared (RMW) bump is required here: the slot may already have
        // been reaped and re-acquired, and the owner-only load+store
        // variant could swallow the successor's concurrent increment. A
        // stale bump itself is benign — the beat is pure liveness
        // signal, and at worst delays the successor's next reap by one
        // observation.
        if q.config.reap_patience != 0 {
            q.state[tid].bump_beat_shared();
        }
        if !self.id.lease_holds() {
            // Reaped out from under us (lease-contract violation on our
            // side): the reaper already drove the descriptor idle and
            // quarantined our participation (a hazard record is now
            // adoptable, so it is leaked rather than dropped), and the
            // slot may belong to a successor — touching `state[tid]` or
            // `tokens[tid]` now would corrupt *their* state.
            // `IdGuard::drop`'s release CAS fails silently on the stale
            // generation. Only our private nodes are still ours to free.
            R::drain(&mut self.local, &guard, &q.pool);
            return;
        }
        R::exiting(&q.tokens[tid]);
        let (w, phase) = q.state[tid].view(Ordering::SeqCst);
        if w.pending() {
            // Nobody will ever read a dequeue's result; taking it out of
            // its node keeps conservation exact (it counts as
            // consumed-by-the-departed-thread).
            drop(self.finish_own(&guard, w.enqueue(), phase));
        }
        // Even when our op is no longer pending, the tail may still sit
        // *before* our appended node (we died between enqueue steps 2
        // and 3). Helpers only swing the tail while the owner's
        // descriptor still references that node (the L91 identity
        // check), so the dummy may be published only once the tail is
        // past it — one help_finish_enq call guarantees that. The head
        // needs no such gate (the L150 CAS is unconditional), but we
        // drive it too so the slot is handed over fully quiescent.
        q.help_finish_enq(&self.local);
        q.help_finish_deq(&mut self.local, &guard, tid);
        // Fresh idle descriptor (version-bumped in place): the slot's
        // next owner starts from the same state a brand-new slot has,
        // and stale helper CASes against our old words keep failing.
        q.state[tid].reset();
        R::drain(&mut self.local, &guard, &q.pool);
        // SAFETY: the one `exit` of this handle state; nothing uses it
        // afterwards. `self.id` drops after this body, releasing the
        // virtual ID — only now that the state entry is helpable and
        // self-contained.
        unsafe { R::exit(&mut self.local, guard, &q.tokens[tid]) };
    }
}

/// An in-flight operation started by
/// [`KpHandle::begin_enqueue_unhelped`] or
/// [`KpHandle::begin_dequeue_unhelped`] — the owner is "stalled" and
/// other threads' operations may complete it through helping.
///
/// Holds the owner's per-operation protection (its epoch guard), so the
/// queue's node references stay valid until
/// [`finish`](KpPendingOp::finish). Not `Send`: it models one stalled
/// thread.
#[doc(hidden)]
pub struct KpPendingOp<'h, 'q, T: Send, R: Reclaim> {
    handle: &'h mut KpHandle<'q, T, R>,
    guard: R::Guard,
    phase: i64,
    enqueue: bool,
    done: bool,
}

impl<T: Send, R: Reclaim> KpPendingOp<'_, '_, T, R> {
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
        let value = self.handle.finish_own(&self.guard, self.enqueue, self.phase);
        let cells = self.handle.cells;
        if self.enqueue {
            cells.enqueues.bump();
        } else {
            cells.dequeues.bump();
        }
        value
    }

    /// Resumes the stalled owner: completes the operation (help may
    /// already have done all the work) and returns the dequeued value,
    /// if this was a dequeue.
    pub fn finish(mut self) -> Option<T> {
        self.complete()
    }

    /// Walks away without completing: the descriptor stays pending, as
    /// if the owning thread died mid-operation. The handle's exit
    /// cleanup (its `Drop`) is then responsible for the abandoned
    /// operation — this is the test hook for the §3.3 "dummy descriptor
    /// on exit" path.
    pub fn abandon(mut self) {
        self.done = true;
    }
}

impl<T: Send, R: Reclaim> Drop for KpPendingOp<'_, '_, T, R> {
    fn drop(&mut self) {
        if !self.done {
            // The operation MUST be driven to completion before the
            // handle can be reused; a dequeued value, if any, is
            // discarded.
            drop(self.complete());
        }
    }
}
