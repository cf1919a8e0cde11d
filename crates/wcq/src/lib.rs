//! wCQ: a bounded wait-free MPMC FIFO on an SCQ index ring, after
//! Nikolaev & Ravindran's *wCQ: A Fast Wait-Free Queue with Bounded
//! Memory Usage* (see PAPERS.md and DESIGN.md §14).
//!
//! The third engine behind `queue-traits`, next to the two
//! Kogan–Petrank linked-list variants. Where KP linearizes through
//! pointer-chased nodes and leans on reclamation (epoch or hazard
//! pointers), wCQ keeps **all** state in three fixed arrays allocated
//! at construction:
//!
//! * a data array of `capacity` slots,
//! * `fq` — an index ring seeded with every free slot index,
//! * `aq` — an index ring of allocated (value-carrying) slot indices.
//!
//! Enqueue = pop a free index from `fq`, write the slot, push the
//! index onto `aq`; dequeue mirrors it. Both ring operations run a
//! bounded SCQ fast path (FAA ticket + entry CAS) and demote to a
//! helping slow path on exhaustion (see `ring.rs`), so every
//! operation finishes in a bounded number of its own steps once every
//! other thread is helping — the wait-freedom structure shared with
//! the KP engines, verified by the same chaos step watchdog.
//!
//! **No reclamation, ever:** indices circulate between the two rings,
//! nothing is allocated after construction and nothing is freed before
//! drop, so there is no ABA to defend against beyond the cycle tags
//! and no stalled-reader memory growth — a stalled (or dead) thread
//! can strand at most one slot. The flip side is a hard capacity:
//! [`WcqHandle::try_enqueue`] reports [`Full`] when no free index is
//! available ([`QueueHandle::enqueue`] spins on it), and `Full` may be
//! reported transiently while concurrent dequeuers hold indices
//! mid-flight between the rings.

#![warn(missing_docs)]

mod chaos_hooks;
mod ring;
#[cfg(test)]
mod tests;

use std::cell::UnsafeCell;
use std::fmt;
use std::mem::MaybeUninit;

use idpool::{IdGuard, IdPool};
use kp_sync::atomic::{AtomicU64, Ordering};
use kp_sync::CachePadded;
use queue_traits::{ConcurrentQueue, FastPathStats, QueueHandle, RegistrationError};

use crate::chaos_hooks::{op_begin, op_end};
use crate::ring::{
    arg_is_enq, arg_ring, arg_seq, c_seq, c_state, c_ticket, pack_arg, pack_ctrl, DeqOutcome,
    RecordSet, Ring, CTRL_SEQ_MASK, ST_DONE_OK, ST_IDLE, ST_PENDING, TICKET_UNSET,
};

/// Ring selector bits echoed in record `arg` words.
const SEL_AQ: u64 = 0;
const SEL_FQ: u64 = 1;

/// Largest supported capacity: data indices live in 24 entry bits with
/// the all-ones pattern reserved as ⊥.
pub const MAX_CAPACITY: usize = (1 << 23) - 1;

/// Largest supported thread count: record ids live in 8 entry bits
/// with the all-ones pattern reserved as "none".
pub const MAX_THREADS: usize = 128;

/// Tuning knobs for [`WcQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    capacity: usize,
    patience: usize,
}

/// Default element capacity (the ring itself is twice this).
pub const DEFAULT_CAPACITY: usize = 1 << 16;
/// Default fast-path attempts before demoting to the helping slow path.
pub const DEFAULT_PATIENCE: usize = 64;

impl Config {
    /// Defaults: 65536 slots, 64 fast-path attempts.
    pub fn new() -> Config {
        Config {
            capacity: DEFAULT_CAPACITY,
            patience: DEFAULT_PATIENCE,
        }
    }

    /// Sets the element capacity (1..=[`MAX_CAPACITY`]).
    pub fn with_capacity(mut self, capacity: usize) -> Config {
        assert!(
            (1..=MAX_CAPACITY).contains(&capacity),
            "wcq capacity must be in 1..={MAX_CAPACITY}"
        );
        self.capacity = capacity;
        self
    }

    /// Sets the fast-path patience; `0` sends every operation through
    /// the helping slow path (record coverage in tests).
    pub fn with_patience(mut self, patience: usize) -> Config {
        self.patience = patience;
        self
    }

    /// Slow-path-only configuration (patience 0): every ring operation
    /// goes through a published record.
    pub fn slow_only() -> Config {
        Config::new().with_patience(0)
    }

    /// The configured element capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured fast-path patience.
    pub fn patience(&self) -> usize {
        self.patience
    }
}

impl Default for Config {
    fn default() -> Config {
        Config::new()
    }
}

/// Typed result of [`WcqHandle::try_enqueue`] on a full queue: hands
/// the rejected value back.
pub struct Full<T>(pub T);

impl<T> fmt::Debug for Full<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Full(..)")
    }
}

/// Typed result of [`WcqHandle::try_dequeue`] on an empty queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Empty;

/// The bounded wait-free ring-buffer queue. See the crate docs.
pub struct WcQueue<T> {
    aq: Ring,
    fq: Ring,
    data: Box<[UnsafeCell<MaybeUninit<T>>]>,
    recs: RecordSet,
    ids: IdPool,
    capacity: usize,
    patience: usize,
    /// Monotonic count of completed value enqueues (depth gauge).
    enq_done: CachePadded<AtomicU64>,
    /// Monotonic count of values removed (depth gauge + drain signal).
    deq_done: CachePadded<AtomicU64>,
}

// SAFETY: values move through the shared data array, but the rings hand
// out *exclusive* ownership of each slot index (an index lives in `fq`,
// in `aq`, or in exactly one operation's hands), so a `&WcQueue` shared
// across threads never yields two references to one slot; `T: Send`
// therefore suffices for both auto traits.
unsafe impl<T: Send> Send for WcQueue<T> {}
// SAFETY: see the `Send` impl above; all other shared state is atomics.
unsafe impl<T: Send> Sync for WcQueue<T> {}

impl<T: Send> WcQueue<T> {
    /// A queue for up to `threads` concurrent handles with the default
    /// [`Config`].
    pub fn new(threads: usize) -> WcQueue<T> {
        WcQueue::with_config(threads, Config::new())
    }

    /// A queue for up to `threads` concurrent handles.
    pub fn with_config(threads: usize, config: Config) -> WcQueue<T> {
        assert!(
            (1..=MAX_THREADS).contains(&threads),
            "wcq supports 1..={MAX_THREADS} threads"
        );
        let capacity = config.capacity;
        // Ring of 2n entries for n in-flight indices (n = next pow2 of
        // capacity so the ticket → slot mapping stays a bit mask).
        let order = capacity.next_power_of_two().trailing_zeros() + 1;
        let data = (0..capacity)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        WcQueue {
            aq: Ring::new(order, SEL_AQ, 0),
            fq: Ring::new(order, SEL_FQ, capacity),
            data,
            recs: RecordSet::new(threads),
            ids: IdPool::new(threads),
            capacity,
            patience: config.patience,
            enq_done: CachePadded::new(AtomicU64::new(0)),
            deq_done: CachePadded::new(AtomicU64::new(0)),
        }
    }

}

// Internal machinery: none of it touches `T`, and the handle's `Drop`
// (which cannot add bounds) needs it.
impl<T> WcQueue<T> {
    /// The fixed element capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Diagnostic: how many times an enqueue had to reset the SCQ
    /// threshold counter (on either ring) — the bench's
    /// threshold-reset column.
    pub fn threshold_resets(&self) -> u64 {
        self.aq.resets() + self.fq.resets()
    }

    /// Number of values resident right now, derived from two monotonic
    /// completion counters (`Relaxed`: an advisory gauge with no
    /// synchronization role). Exact at quiescence; under load it lags
    /// by at most the number of in-flight operations, and a thread
    /// killed between reading a value and recycling its index leaves a
    /// permanent +1 — the same one-per-sudden-death allowance as the
    /// ring's stranded-index rule (see [`Drop`] on the handle).
    pub fn depth(&self) -> usize {
        // Dequeues first: a concurrent completion between the two loads
        // then errs toward overcounting, never toward a negative gauge.
        // ord(stats): advisory resident-value gauge; dequeue counter loaded
        // first so a racing completion overcounts, never goes negative -- exact
        // at quiescence, +1 tolerance per sudden-death kill (stranded-index
        // rule)
        let deq = self.deq_done.load(Ordering::Relaxed);
        // ord(stats): advisory resident-value gauge; dequeue counter loaded
        // first so a racing completion overcounts, never goes negative -- exact
        // at quiescence, +1 tolerance per sudden-death kill (stranded-index
        // rule)
        let enq = self.enq_done.load(Ordering::Relaxed);
        enq.saturating_sub(deq) as usize
    }

    /// Monotonic count of values removed from the queue — the drain
    /// heartbeat a shard-health watchdog compares across ticks.
    pub fn drained(&self) -> u64 {
        // ord(stats): monotonic drain heartbeat for the overload watchdog;
        // Relaxed, compared across ticks only
        self.deq_done.load(Ordering::Relaxed)
    }

    /// Diagnostic: the current threshold-counter values of the
    /// allocated and free rings. Negative means the ring was observed
    /// empty since the last completed enqueue on it.
    pub fn threshold_values(&self) -> (i64, i64) {
        (self.aq.threshold_value(), self.fq.threshold_value())
    }

    /// Helps every published slow-path record to completion; called at
    /// the top of every operation (cheap pending-gauge load when no
    /// record is out).
    fn maybe_help(&self) {
        // ord(helper-guard, sc=wcq-rec): pending-record gauge probe; zero skips
        // the scan entirely
        if self.recs.pending.load(Ordering::SeqCst) == 0 {
            return;
        }
        for rid in 0..self.recs.records.len() {
            let rec = &self.recs.records[rid];
            // ord(helper-guard, sc=wcq-rec): ctrl scan read: is this record
            // pending, and at which generation
            let c = rec.ctrl.load(Ordering::SeqCst);
            if c_state(c) != ST_PENDING {
                continue;
            }
            // ord(helper-guard, sc=wcq-rec): arg read dispatching the pending
            // op to its ring; the seq echo rejects mixed-generation reads
            let arg = rec.arg.load(Ordering::SeqCst);
            if arg_seq(arg) != c_seq(c) {
                continue;
            }
            let ring = if arg_ring(arg) == SEL_AQ {
                &self.aq
            } else {
                &self.fq
            };
            ring.help_record(&self.recs, rid);
        }
    }

    /// Publishes a slow-path op in this thread's record. Returns its seq.
    fn publish(&self, tid: usize, is_enq: bool, ring: &Ring, idx: u64) -> u64 {
        let rec = &self.recs.records[tid];
        // ord(helper-guard, sc=wcq-rec): own ctrl read deriving the next
        // generation number; the owner is the only writer between publishes
        let prev = rec.ctrl.load(Ordering::SeqCst);
        debug_assert_eq!(c_state(prev), ST_IDLE, "one op at a time per record");
        let seq = (c_seq(prev) + 1) & CTRL_SEQ_MASK;
        rec.arg
            // ord(doorway, sc=wcq-rec): publishes the operation's argument word
            // before the ctrl goes pending
            .store(pack_arg(seq, is_enq, ring.sel(), idx), Ordering::SeqCst);
        // ord(doorway, sc=wcq-rec): pending-gauge increment: the announcement
        // the helpers' gauge probe must observe
        self.recs.pending.fetch_add(1, Ordering::SeqCst);
        rec.ctrl
            // ord(doorway, sc=wcq-rec): ctrl word goes PENDING; must follow the
            // arg and gauge in the total order
            .store(pack_ctrl(ST_PENDING, seq, TICKET_UNSET), Ordering::SeqCst);
        seq
    }

    /// Helps own record until it leaves PENDING; returns (state, ticket).
    fn drive(&self, ring: &Ring, tid: usize, seq: u64) -> (u64, u64) {
        let rec = &self.recs.records[tid];
        loop {
            ring.help_record(&self.recs, tid);
            // ord(helper-guard, sc=wcq-rec): owner re-reads its ctrl word
            // between self-help rounds; the slow-path completion also bumps the
            // Relaxed depth-gauge counters (same argument as the fast-path
            // bumps in try_enqueue/try_dequeue)
            let c = rec.ctrl.load(Ordering::SeqCst);
            if c_seq(c) == seq && c_state(c) != ST_PENDING {
                return (c_state(c), c_ticket(c));
            }
        }
    }

    /// Returns the record to IDLE; the CAS winner (there is exactly
    /// one: the owner, or its handle's drop cleanup) drops the
    /// pending-gauge count.
    fn retire(&self, tid: usize, seq: u64, tk: u64) {
        let rec = &self.recs.records[tid];
        // ord(helper-guard, sc=wcq-rec): done-state read before the idle
        // transition
        let done = rec.ctrl.load(Ordering::SeqCst);
        if rec
            .ctrl
            // ord(doorway, sc=wcq-rec): DONE -> IDLE transition; a CAS so the
            // gauge decrement below happens exactly once even against a racing
            // generation
            .compare_exchange(
                done,
                pack_ctrl(ST_IDLE, seq, tk),
                Ordering::SeqCst,
                Ordering::Relaxed,
            )
            .is_ok()
        {
            // ord(doorway, sc=wcq-rec): pending-gauge decrement, balancing
            // publish's increment
            self.recs.pending.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Ring dequeue with demotion: `(index, used_slow_path)`.
    fn ring_dequeue(&self, ring: &Ring, tid: usize) -> (Option<u64>, bool) {
        match ring.dequeue_fast(&self.recs, self.patience) {
            Ok(DeqOutcome::Got(idx)) => (Some(idx), false),
            Ok(DeqOutcome::Empty) => (None, false),
            Err(()) => {
                let seq = self.publish(tid, false, ring, 0);
                let (st, tk) = self.drive(ring, tid, seq);
                let out = if st == ST_DONE_OK {
                    Some(ring.consume_claim(tk, tid as u64))
                } else {
                    None
                };
                self.retire(tid, seq, tk);
                (out, true)
            }
        }
    }

    /// Ring enqueue with demotion (infallible: a ring always has room
    /// for every circulating index): returns `used_slow_path`.
    fn ring_enqueue(&self, ring: &Ring, tid: usize, idx: u64) -> bool {
        if ring.enqueue_fast(idx, self.patience).is_ok() {
            return false;
        }
        let seq = self.publish(tid, true, ring, idx);
        let (st, tk) = self.drive(ring, tid, seq);
        debug_assert_eq!(st, ST_DONE_OK, "ring enqueue cannot fail");
        ring.ensure_finalized(tk, tid as u64, idx);
        self.retire(tid, seq, tk);
        true
    }
}

impl<T: Send> ConcurrentQueue<T> for WcQueue<T> {
    type Handle<'a>
        = WcqHandle<'a, T>
    where
        T: 'a;

    fn register(&self) -> Result<WcqHandle<'_, T>, RegistrationError> {
        let lease = self.ids.acquire().ok_or(RegistrationError {
            capacity: self.ids.capacity(),
        })?;
        Ok(WcqHandle {
            queue: self,
            lease,
            stats: FastPathStats::default(),
        })
    }

    fn thread_capacity(&self) -> usize {
        self.ids.capacity()
    }

    fn depth_hint(&self) -> Option<usize> {
        Some(self.depth())
    }

    fn drained_hint(&self) -> Option<u64> {
        Some(self.drained())
    }

    fn capacity_hint(&self) -> Option<usize> {
        Some(self.capacity)
    }
}

impl<T> Drop for WcQueue<T> {
    fn drop(&mut self) {
        // Exclusive access: drop every value still referenced by the
        // allocated ring — plain entries, unfinalized tentatives and
        // unconsumed claims alike. A stale tentative can alias an
        // index that also appears finalized elsewhere, so dedup.
        // (Indices popped from `aq` by an op killed before it pushed
        // them to `fq` reference values this walk cannot see; those
        // leak — safely — and are bounded by one per killed thread.)
        if !std::mem::needs_drop::<T>() {
            return;
        }
        let mut seen = vec![false; self.capacity];
        for idx in self.aq.live_indices() {
            let i = idx as usize;
            if i < self.capacity && !seen[i] {
                seen[i] = true;
                // SAFETY: `&mut self` — no concurrent access; an index
                // reported live by `aq` had a value written before the
                // slot entered the ring, and `seen` prevents a double
                // drop when a stale tentative aliases it.
                unsafe { (*self.data[i].get()).assume_init_drop() };
            }
        }
    }
}

impl<T> fmt::Debug for WcQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WcQueue")
            .field("capacity", &self.capacity)
            .field("patience", &self.patience)
            .finish_non_exhaustive()
    }
}

/// A registered per-thread handle to a [`WcQueue`].
pub struct WcqHandle<'q, T> {
    queue: &'q WcQueue<T>,
    lease: IdGuard<'q>,
    stats: FastPathStats,
}

impl<T: Send> WcqHandle<'_, T> {
    /// The virtual thread ID (record-set slot) this handle leases.
    #[inline]
    pub fn tid(&self) -> usize {
        self.lease.id()
    }

    fn tally(&mut self, slow_stages: u64) {
        if slow_stages == 0 {
            self.stats.fast_completions += 1;
        } else {
            self.stats.slow_ops += 1;
            if self.queue.patience > 0 {
                self.stats.fast_exhaustions += slow_stages;
            }
        }
    }

    /// Inserts `value` at the tail, or hands it back if no free slot
    /// is available. `Full` can be reported transiently while
    /// concurrent dequeuers hold slot indices mid-flight.
    pub fn try_enqueue(&mut self, value: T) -> Result<(), Full<T>> {
        let q = self.queue;
        let tid = self.tid();
        op_begin();
        q.maybe_help();
        let (idx, slow1) = q.ring_dequeue(&q.fq, tid);
        let Some(idx) = idx else {
            op_end();
            self.tally(slow1 as u64);
            return Err(Full(value));
        };
        // SAFETY: `idx` came off `fq`, which grants exclusive ownership
        // of the (uninitialized) slot until the `aq` enqueue publishes it.
        unsafe { (*q.data[idx as usize].get()).write(value) };
        let slow2 = q.ring_enqueue(&q.aq, tid, idx);
        // ord(stats): depth-gauge bump after the value is published in the
        // ring; Relaxed -- the gauge is advisory (admission hint), the ring's
        // own SeqCst protocol carries the value
        q.enq_done.fetch_add(1, Ordering::Relaxed);
        op_end();
        self.tally(slow1 as u64 + slow2 as u64);
        Ok(())
    }

    /// Removes and returns the head value, or reports [`Empty`].
    pub fn try_dequeue(&mut self) -> Result<T, Empty> {
        let q = self.queue;
        let tid = self.tid();
        op_begin();
        q.maybe_help();
        let (idx, slow1) = q.ring_dequeue(&q.aq, tid);
        let Some(idx) = idx else {
            op_end();
            self.tally(slow1 as u64);
            return Err(Empty);
        };
        // SAFETY: `idx` came off `aq`, so the producer's write happened
        // before the index was published there, and this dequeuer owns
        // the slot exclusively until the `fq` enqueue recycles it.
        let value = unsafe { (*q.data[idx as usize].get()).assume_init_read() };
        // ord(stats): depth-gauge bump after the value is taken from the ring;
        // Relaxed for the same reason as try_enqueue's
        q.deq_done.fetch_add(1, Ordering::Relaxed);
        let slow2 = q.ring_enqueue(&q.fq, tid, idx);
        op_end();
        self.tally(slow1 as u64 + slow2 as u64);
        Ok(value)
    }
}

impl<T: Send> QueueHandle<T> for WcqHandle<'_, T> {
    /// Blocking on a full queue: retries (with a scheduler yield) until
    /// a slot frees up. The bounded-capacity caveat of this engine —
    /// the generic trait has no full outcome.
    fn enqueue(&mut self, value: T) {
        let mut v = value;
        loop {
            match self.try_enqueue(v) {
                Ok(()) => return,
                Err(Full(back)) => {
                    v = back;
                    std::thread::yield_now();
                }
            }
        }
    }

    fn dequeue(&mut self) -> Option<T> {
        self.try_dequeue().ok()
    }

    /// Non-blocking: surfaces the ring's capacity limit instead of
    /// spinning, for layers that want a `Full` outcome.
    fn try_enqueue(&mut self, value: T) -> Result<(), T> {
        WcqHandle::try_enqueue(self, value).map_err(|Full(v)| v)
    }

    fn fast_path_stats(&self) -> Option<FastPathStats> {
        Some(self.stats)
    }
}

impl<T> Drop for WcqHandle<'_, T> {
    fn drop(&mut self) {
        let q = self.queue;
        let tid = self.lease.id();
        let rec = &q.recs.records[tid];
        // ord(reclamation, sc=wcq-rec): handle-drop cleanup: finishes or
        // retires the dying handle's pending record (and recycles a stranded
        // index) before the tid lease can be re-acquired
        let c = rec.ctrl.load(Ordering::SeqCst);
        if c_state(c) == ST_IDLE {
            return;
        }
        // The thread died (panic/kill) mid-slow-op: drive the record
        // to completion, make its effect whole, and retire it so the
        // slot's next tenant starts clean.
        // ord(reclamation, sc=wcq-rec): handle-drop cleanup: finishes or
        // retires the dying handle's pending record (and recycles a stranded
        // index) before the tid lease can be re-acquired
        let arg = rec.arg.load(Ordering::SeqCst);
        let ring = if arg_ring(arg) == SEL_AQ { &q.aq } else { &q.fq };
        ring.help_record(&q.recs, tid);
        // ord(reclamation, sc=wcq-rec): handle-drop cleanup: finishes or
        // retires the dying handle's pending record (and recycles a stranded
        // index) before the tid lease can be re-acquired
        let c = rec.ctrl.load(Ordering::SeqCst);
        let (st, seq, tk) = (c_state(c), c_seq(c), c_ticket(c));
        let mut stranded = None;
        if st == ST_DONE_OK {
            if arg_is_enq(arg) {
                ring.ensure_finalized(tk, tid as u64, ring::arg_idx(arg));
                if ring.sel() == SEL_AQ {
                    // The killed thread's value enqueue took effect but
                    // never reached its fast-path gauge bump.
                    // ord(stats): depth-gauge bump the killed enqueue never
                    // made: its value landed in the ring but the op died before
                    // the fast-path bump; Relaxed -- the gauge is advisory, as
                    // in try_enqueue
                    q.enq_done.fetch_add(1, Ordering::Relaxed);
                }
            } else {
                // The op logically dequeued something nobody will see.
                // Consume the claim; if it was a value (aq), take it to
                // the grave (the torture ledger's one-per-kill
                // allowance); either way recycle the slot index.
                let idx = ring.consume_claim(tk, tid as u64);
                if ring.sel() == SEL_AQ {
                    // SAFETY: consuming a won `aq` claim grants this
                    // handle exclusive ownership of an initialized slot,
                    // exactly as in `try_dequeue`.
                    unsafe { (*q.data[idx as usize].get()).assume_init_drop() };
                    // Grave-dropped values still left the queue.
                    // ord(stats): depth-gauge bump the killed dequeue never
                    // made: the grave-dropped value still left the queue;
                    // Relaxed -- the gauge is advisory, as in try_dequeue
                    q.deq_done.fetch_add(1, Ordering::Relaxed);
                }
                stranded = Some(idx);
            }
        }
        q.retire(tid, seq, tk);
        if let Some(idx) = stranded {
            q.ring_enqueue(&q.fq, tid, idx);
        }
    }
}

impl<T> fmt::Debug for WcqHandle<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WcqHandle")
            .field("tid", &self.lease.id())
            .finish_non_exhaustive()
    }
}
