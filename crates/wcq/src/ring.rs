//! The SCQ index ring with a wCQ-style helping slow path.
//!
//! An indexed circular queue after Nikolaev's SCQ (SPAA'19), extended
//! with per-thread operation records in the spirit of wCQ (Nikolaev &
//! Ravindran): when a thread's bounded fast path exhausts its patience,
//! it publishes its operation in a single-word *record* that any thread
//! can drive to completion, so a stalled or killed thread never blocks
//! progress and no ring slot stays half-written forever.
//!
//! # Entry words
//!
//! A ring of `2n` entry words indexes a data array of `n` slots. Each
//! entry packs `{cycle:30 | safe:1 | final:1 | tid:8 | idx:24}`:
//!
//! * `cycle` — which lap of the ring the entry belongs to (wrapping;
//!   compared with a wrapping distance, see [`cycle_lt`]).
//! * `safe` — SCQ's safety bit: cleared when a dequeuer of a later
//!   cycle walks past a still-occupied entry, so a slow enqueuer from
//!   an earlier cycle cannot install into a position the head already
//!   passed (unless it re-checks `head <= ticket`).
//! * `final` — clear while a slow-path enqueue is *tentative*: the
//!   value is physically present but does not count until the owning
//!   record's ctrl word says so. Fast-path installs are born final.
//! * `tid` — `TID_NONE` for plain values; otherwise the record whose
//!   slow-path install (tentative) or dequeue *claim* the entry is
//!   part of.
//! * `idx` — data-array index carried by the entry, `IDX_NULL` when
//!   the entry holds no value (free or consumed).
//!
//! # Tickets and the threshold
//!
//! Fast enqueuers/dequeuers take tickets with a FAA on `tail`/`head`;
//! ticket `t` maps to entry `remap(t mod 2n)` at cycle `t / 2n`. The
//! `threshold` counter (reset to `3n-1` by every completed enqueue,
//! decremented once per failed dequeue ticket) bounds the number of
//! dead tickets dequeuers can burn before concluding the ring is
//! empty — SCQ's argument that EMPTY is only returned if the ring was
//! really empty at some point during the op carries over unchanged,
//! because the slow path charges exactly one decrement per abandoned
//! ticket too (tied to winning the record's advance CAS).
//!
//! # Records
//!
//! A record is one cache-padded pair of words per registered thread:
//! `ctrl = {state:2 | seq:20 | ticket:42}` plus `arg = {seq:20 |
//! is_enq:1 | ring:1 | idx:24}`. All transitions are full-word CASes
//! on `ctrl`. Tickets proposed into a record are strictly monotonic
//! per ring (each proposal reads the ring's `tail`/`head`, and every
//! install/claim advances the counter past its ticket first), which
//! makes ctrl words ABA-free in practice despite the 20-bit seq: a
//! `{PENDING, seq, ticket}` word can only recur after a 2^20-operation
//! seq wrap *and* a ticket collision, and stale entry-CASes are
//! additionally defeated by the full-word entry compare.
//!
//! The slow-path handshake, per attempt ticket `T`:
//!
//! * **enqueue** — any helper CASes a *tentative* entry (`final=0`,
//!   `tid=owner`) into position `T`, then CASes ctrl to `DONE_OK`;
//!   the transition winner sets the final bit and resets the
//!   threshold. A tentative whose record has moved past `T` is
//!   *invalidated* (consumed-empty) by whoever trips over it.
//! * **dequeue** — any helper CASes the value entry at `T` from
//!   `tid=TID_NONE` to `tid=owner` (a *claim*), then CASes ctrl to
//!   `DONE_OK`; only the owner consumes its claim (it must read the
//!   data slot), so a killed owner strands at most one slot+value,
//!   which the queue's `Drop` and the handle cleanup reap.
//!
//! Memory orderings are uniformly `SeqCst` on the ring/record words:
//! SCQ's emptiness and safety checks are cross-variable (entry vs
//! `head`/`tail` vs `threshold`), and the helping handshake orders
//! `ctrl` against entries; `SeqCst` loads are free on x86 and the RMWs
//! are lock-prefixed at any ordering. Each site's `// ord(...)` tag
//! names the shared `sc=wcq` or `sc=wcq-rec` argument.

use kp_sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use kp_sync::CachePadded;

use crate::chaos_hooks::inject;

// ---- entry word packing ----

const IDX_BITS: u32 = 24;
/// "No index": the paper's ⊥.
pub(crate) const IDX_NULL: u64 = (1 << IDX_BITS) - 1;
const TID_SHIFT: u32 = 24;
const TID_MASK: u64 = 0xFF;
/// "No record": a plain fast-path value or a free/consumed entry.
pub(crate) const TID_NONE: u64 = 0xFF;
const FIN_BIT: u64 = 1 << 32;
const SAFE_BIT: u64 = 1 << 33;
const CYCLE_SHIFT: u32 = 34;
const CYCLE_BITS: u32 = 30;
const CYCLE_MASK: u64 = (1 << CYCLE_BITS) - 1;
const CYCLE_HALF: u64 = 1 << (CYCLE_BITS - 1);

#[inline]
pub(crate) fn pack_entry(cycle: u64, safe: bool, fin: bool, tid: u64, idx: u64) -> u64 {
    debug_assert!(idx <= IDX_NULL && tid <= TID_MASK);
    ((cycle & CYCLE_MASK) << CYCLE_SHIFT)
        | (if safe { SAFE_BIT } else { 0 })
        | (if fin { FIN_BIT } else { 0 })
        | (tid << TID_SHIFT)
        | idx
}

#[inline]
pub(crate) fn e_cycle(e: u64) -> u64 {
    (e >> CYCLE_SHIFT) & CYCLE_MASK
}
#[inline]
pub(crate) fn e_safe(e: u64) -> bool {
    e & SAFE_BIT != 0
}
#[inline]
pub(crate) fn e_fin(e: u64) -> bool {
    e & FIN_BIT != 0
}
#[inline]
pub(crate) fn e_tid(e: u64) -> u64 {
    (e >> TID_SHIFT) & TID_MASK
}
#[inline]
pub(crate) fn e_idx(e: u64) -> u64 {
    e & IDX_NULL
}

/// `a < b` on wrapping 30-bit cycle tags: true iff the forward distance
/// from `a` to `b` is nonzero and less than half the cycle space. Ring
/// dynamics keep live entries within a handful of cycles of the
/// current head/tail cycle (every entry is revisited each lap), so the
/// half-space window is never approached in practice; the proptest in
/// this module pins the wraparound behavior down regardless.
#[inline]
pub(crate) fn cycle_lt(a: u64, b: u64) -> bool {
    let d = b.wrapping_sub(a) & CYCLE_MASK;
    d != 0 && d < CYCLE_HALF
}

// ---- record ctrl/arg word packing ----

pub(crate) const ST_IDLE: u64 = 0;
pub(crate) const ST_PENDING: u64 = 1;
pub(crate) const ST_DONE_OK: u64 = 2;
pub(crate) const ST_DONE_EMPTY: u64 = 3;

const CTRL_TICKET_BITS: u32 = 42;
/// No ticket proposed yet for the current attempt.
pub(crate) const TICKET_UNSET: u64 = (1 << CTRL_TICKET_BITS) - 1;
const CTRL_SEQ_BITS: u32 = 20;
pub(crate) const CTRL_SEQ_MASK: u64 = (1 << CTRL_SEQ_BITS) - 1;
const CTRL_STATE_SHIFT: u32 = CTRL_TICKET_BITS + CTRL_SEQ_BITS;

#[inline]
pub(crate) fn pack_ctrl(state: u64, seq: u64, ticket: u64) -> u64 {
    debug_assert!(state <= 3 && seq <= CTRL_SEQ_MASK && ticket <= TICKET_UNSET);
    (state << CTRL_STATE_SHIFT) | ((seq & CTRL_SEQ_MASK) << CTRL_TICKET_BITS) | ticket
}

#[inline]
pub(crate) fn c_state(c: u64) -> u64 {
    c >> CTRL_STATE_SHIFT
}
#[inline]
pub(crate) fn c_seq(c: u64) -> u64 {
    (c >> CTRL_TICKET_BITS) & CTRL_SEQ_MASK
}
#[inline]
pub(crate) fn c_ticket(c: u64) -> u64 {
    c & TICKET_UNSET
}

const ARG_RING_BIT: u64 = 1 << IDX_BITS;
const ARG_ENQ_BIT: u64 = 1 << (IDX_BITS + 1);
const ARG_SEQ_SHIFT: u32 = IDX_BITS + 2;

#[inline]
pub(crate) fn pack_arg(seq: u64, is_enq: bool, ring_sel: u64, idx: u64) -> u64 {
    ((seq & CTRL_SEQ_MASK) << ARG_SEQ_SHIFT)
        | (if is_enq { ARG_ENQ_BIT } else { 0 })
        | (ring_sel * ARG_RING_BIT)
        | idx
}

#[inline]
pub(crate) fn arg_seq(a: u64) -> u64 {
    (a >> ARG_SEQ_SHIFT) & CTRL_SEQ_MASK
}
#[inline]
pub(crate) fn arg_is_enq(a: u64) -> bool {
    a & ARG_ENQ_BIT != 0
}
#[inline]
pub(crate) fn arg_ring(a: u64) -> u64 {
    (a & ARG_RING_BIT) >> IDX_BITS
}
#[inline]
pub(crate) fn arg_idx(a: u64) -> u64 {
    a & IDX_NULL
}

/// One thread's published slow-path operation.
pub(crate) struct Record {
    /// `{state:2 | seq:20 | ticket:42}` — every transition a full-word CAS.
    pub(crate) ctrl: AtomicU64,
    /// `{seq:20 | is_enq:1 | ring:1 | idx:24}` — written while IDLE,
    /// before the PENDING publish; the seq echo lets helpers detect a
    /// mixed-generation read.
    pub(crate) arg: AtomicU64,
}

/// All records plus the pending-operation gauge fast paths poll.
pub(crate) struct RecordSet {
    pub(crate) records: Box<[CachePadded<Record>]>,
    /// Number of published (PENDING/DONE, not yet retired) records.
    /// A helping *hint*: correctness never depends on it — a record
    /// whose owner was killed between retire and the decrement only
    /// costs every later op a scan of the (all-idle) records.
    pub(crate) pending: CachePadded<AtomicUsize>,
}

impl RecordSet {
    pub(crate) fn new(threads: usize) -> RecordSet {
        let records = (0..threads)
            .map(|_| {
                CachePadded::new(Record {
                    ctrl: AtomicU64::new(pack_ctrl(ST_IDLE, 0, TICKET_UNSET)),
                    arg: AtomicU64::new(0),
                })
            })
            .collect();
        RecordSet {
            records,
            pending: CachePadded::new(AtomicUsize::new(0)),
        }
    }
}

/// What a claim/tentative resolution concluded about the entry.
pub(crate) enum Resolution {
    /// The entry or its record moved; re-read the entry.
    Retry,
    /// The value at this position was (or will be) delivered to the
    /// claiming record; the position is dead for everyone else.
    Dead,
}

/// Outcome of a ring dequeue.
pub(crate) enum DeqOutcome {
    /// A data index.
    Got(u64),
    /// The ring was observed empty (threshold exhausted).
    Empty,
}

/// An SCQ index ring: `2n` entry words carrying data-array indices.
pub(crate) struct Ring {
    /// log2 of the entry count (ring holds up to `2^(order-1)` indices).
    order: u32,
    /// Which ring this is in the owner queue (0 = aq, 1 = fq); echoed
    /// in record `arg` words so helpers dispatch to the right ring.
    sel: u64,
    threshold: CachePadded<AtomicI64>,
    tail: CachePadded<AtomicU64>,
    head: CachePadded<AtomicU64>,
    /// Diagnostic: actual threshold-counter resets (stores, not the
    /// skipped already-at-reset fast-outs). Feeds the bench's
    /// threshold-reset column; never read by the algorithm.
    resets: CachePadded<AtomicU64>,
    entries: Box<[AtomicU64]>,
}

impl Ring {
    /// A ring of `1 << order` entries, pre-filled with indices
    /// `0..prefill` (the free ring seeds `prefill = capacity`, the
    /// allocated ring seeds zero).
    pub(crate) fn new(order: u32, sel: u64, prefill: usize) -> Ring {
        let size = 1usize << order;
        debug_assert!(prefill <= size / 2);
        // Empty entries sit one cycle behind ticket cycle 0.
        let empty = pack_entry(CYCLE_MASK, true, true, TID_NONE, IDX_NULL);
        let entries: Box<[AtomicU64]> = (0..size).map(|_| AtomicU64::new(empty)).collect();
        let ring = Ring {
            order,
            sel,
            threshold: CachePadded::new(AtomicI64::new(-1)),
            tail: CachePadded::new(AtomicU64::new(0)),
            head: CachePadded::new(AtomicU64::new(0)),
            resets: CachePadded::new(AtomicU64::new(0)),
            entries,
        };
        for i in 0..prefill {
            let (j, cycle) = ring.decode(i as u64);
            // ord(helper-guard): single-threaded initialisation before the
            // structure is shared
            ring.entries[j].store(
                pack_entry(cycle, true, true, TID_NONE, i as u64),
                Ordering::Relaxed,
            );
        }
        if prefill > 0 {
            // ord(helper-guard): single-threaded initialisation before the
            // structure is shared
            ring.tail.store(prefill as u64, Ordering::Relaxed);
            // ord(helper-guard): single-threaded initialisation before the
            // structure is shared
            ring.threshold.store(ring.threshold_reset(), Ordering::Relaxed);
        }
        ring
    }

    #[inline]
    pub(crate) fn sel(&self) -> u64 {
        self.sel
    }

    /// SCQ's `3n - 1` for a ring of `2n` entries.
    #[inline]
    fn threshold_reset(&self) -> i64 {
        let size = 1i64 << self.order;
        size + size / 2 - 1
    }

    /// Ticket → (entry slot, cycle tag). Consecutive tickets are
    /// spread eight entry words (one cache line) apart by rotating the
    /// low `order` bits, SCQ's cache remap.
    #[inline]
    pub(crate) fn decode(&self, t: u64) -> (usize, u64) {
        let mask = (1u64 << self.order) - 1;
        let raw = t & mask;
        let j = if self.order > 3 {
            ((raw << 3) | (raw >> (self.order - 3))) & mask
        } else {
            raw
        };
        (j as usize, (t >> self.order) & CYCLE_MASK)
    }

    #[inline]
    fn reset_threshold(&self) {
        inject!("wcq.threshold");
        let reset = self.threshold_reset();
        // ord(helper-guard, sc=wcq): skip the reset store when the threshold
        // already holds 3n-1
        if self.threshold.load(Ordering::SeqCst) != reset {
            // ord(helper-guard, sc=wcq): threshold reset to 3n-1 after a
            // completed enqueue (SCQ's emptiness credit)
            self.threshold.store(reset, Ordering::SeqCst);
            // ord(stats): reset-observability counter for tests and the
            // shootout; no synchronization intent
            self.resets.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// SCQ catchup: drag `tail` up to `h` so a dequeuer that outran the
    /// enqueuers does not leave `tail` behind `head` forever.
    fn catchup(&self, mut t: u64, mut h: u64) {
        while self
            .tail
            // ord(helper-guard, sc=wcq): drags tail up to head after a dequeuer
            // outran the enqueuers (SCQ catchup); failure values re-read in the
            // loop
            .compare_exchange_weak(t, h, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            // ord(helper-guard, sc=wcq): drags tail up to head after a dequeuer
            // outran the enqueuers (SCQ catchup); failure values re-read in the
            // loop
            t = self.tail.load(Ordering::SeqCst);
            // ord(helper-guard, sc=wcq): drags tail up to head after a dequeuer
            // outran the enqueuers (SCQ catchup); failure values re-read in the
            // loop
            h = self.head.load(Ordering::SeqCst);
            if t >= h {
                break;
            }
        }
    }

    /// Ensures `tail > tk` (slow path, before installing at ticket `tk`).
    fn advance_tail_past(&self, tk: u64) {
        // ord(helper-guard, sc=wcq): slow path: tail must pass the record's
        // ticket before its tentative install can count
        let mut t = self.tail.load(Ordering::SeqCst);
        while t <= tk {
            match self
                .tail
                // ord(helper-guard, sc=wcq): slow path: tail must pass the
                // record's ticket before its tentative install can count
                .compare_exchange_weak(t, tk + 1, Ordering::SeqCst, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(cur) => t = cur,
            }
        }
    }

    /// Ensures `head > tk` (slow path, before claiming at ticket `tk`).
    fn advance_head_past(&self, tk: u64) {
        // ord(helper-guard, sc=wcq): slow path: head must pass the record's
        // ticket before its claim can stand
        let mut h = self.head.load(Ordering::SeqCst);
        while h <= tk {
            match self
                .head
                // ord(helper-guard, sc=wcq): slow path: head must pass the
                // record's ticket before its claim can stand
                .compare_exchange_weak(h, tk + 1, Ordering::SeqCst, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(cur) => h = cur,
            }
        }
    }

    // ---- fast path ----

    /// Bounded-attempt SCQ enqueue of data index `idx`. `Err(())` means
    /// patience ran out (caller demotes to the slow path); the ring
    /// itself can always hold every circulating index, so there is no
    /// "full" outcome at this layer.
    pub(crate) fn enqueue_fast(&self, idx: u64, patience: usize) -> Result<(), ()> {
        for _ in 0..patience {
            inject!("wcq.enq");
            // ord(helper-guard, sc=wcq): tail FAA: takes the enqueue ticket
            let t = self.tail.fetch_add(1, Ordering::SeqCst);
            let (j, cycle) = self.decode(t);
            // ord(helper-guard, sc=wcq): entry read at the ticket's decoded
            // slot
            let mut e = self.entries[j].load(Ordering::SeqCst);
            loop {
                if cycle_lt(e_cycle(e), cycle)
                    && e_idx(e) == IDX_NULL
                    // ord(helper-guard, sc=wcq): head read for the unsafe-entry
                    // admission check
                    && (e_safe(e) || self.head.load(Ordering::SeqCst) <= t)
                {
                    let new = pack_entry(cycle, true, true, TID_NONE, idx);
                    match self
                        .entries[j]
                        // ord(helper-guard, sc=wcq): the value-install CAS; the
                        // failure value re-enters the admission test, so both
                        // orderings are SeqCst
                        .compare_exchange_weak(e, new, Ordering::SeqCst, Ordering::SeqCst)
                    {
                        Ok(_) => {
                            self.reset_threshold();
                            return Ok(());
                        }
                        Err(cur) => {
                            e = cur;
                            continue;
                        }
                    }
                }
                break;
            }
        }
        Err(())
    }

    /// Bounded-attempt SCQ dequeue. `Err(())` means patience ran out.
    pub(crate) fn dequeue_fast(
        &self,
        recs: &RecordSet,
        patience: usize,
    ) -> Result<DeqOutcome, ()> {
        // ord(helper-guard, sc=wcq): threshold pre-check: negative means
        // observably empty without burning a ticket
        if self.threshold.load(Ordering::SeqCst) < 0 {
            return Ok(DeqOutcome::Empty);
        }
        for _ in 0..patience {
            inject!("wcq.deq");
            // ord(helper-guard, sc=wcq): head FAA: takes the dequeue ticket
            let h = self.head.fetch_add(1, Ordering::SeqCst);
            let (j, cycle) = self.decode(h);
            loop {
                // ord(helper-guard, sc=wcq): entry read at the ticket's decoded
                // slot
                let e = self.entries[j].load(Ordering::SeqCst);
                if e_cycle(e) == cycle {
                    if !e_fin(e) {
                        // Tentative slow-path enqueue parked at our
                        // position: resolve it, then look again.
                        self.resolve_tentative(recs, j, e);
                        continue;
                    }
                    if e_idx(e) != IDX_NULL {
                        if e_tid(e) != TID_NONE {
                            // Claimed by a slow dequeue record.
                            match self.resolve_claim(recs, j, e) {
                                Resolution::Retry => continue,
                                Resolution::Dead => {} // fall to dead-ticket path
                            }
                        } else {
                            let new = pack_entry(cycle, e_safe(e), true, TID_NONE, IDX_NULL);
                            // ord(helper-guard, sc=wcq): the value-take CAS
                            // (idx swapped out); failure re-enters the entry
                            // state machine, so both orderings are SeqCst
                            match self.entries[j].compare_exchange_weak(
                                e,
                                new,
                                Ordering::SeqCst,
                                Ordering::SeqCst,
                            ) {
                                Ok(_) => return Ok(DeqOutcome::Got(e_idx(e))),
                                Err(_) => continue,
                            }
                        }
                    }
                    // idx == NULL at our cycle: consumed/invalidated; dead.
                } else if cycle_lt(e_cycle(e), cycle) {
                    // Not produced for our cycle: advance an empty entry's
                    // cycle (blocking late installs) or strip the safe bit
                    // of an occupied one, exactly SCQ's dequeue rule.
                    let new = if e_idx(e) == IDX_NULL {
                        pack_entry(cycle, e_safe(e), true, TID_NONE, IDX_NULL)
                    } else {
                        pack_entry(e_cycle(e), false, e_fin(e), e_tid(e), e_idx(e))
                    };
                    if new != e
                        && self
                            .entries[j]
                            // ord(helper-guard, sc=wcq): advance-empty /
                            // unsafe-mark CAS on a not-yet-produced entry
                            // (SCQ's dequeue rule)
                            .compare_exchange_weak(e, new, Ordering::SeqCst, Ordering::SeqCst)
                            .is_err()
                    {
                        continue;
                    }
                }
                // Dead ticket: emptiness bookkeeping.
                // ord(helper-guard, sc=wcq): tail read classifying a dead
                // ticket as emptiness vs a lost race
                let t = self.tail.load(Ordering::SeqCst);
                if t <= h + 1 {
                    self.catchup(t, h + 1);
                    inject!("wcq.threshold");
                    // ord(helper-guard, sc=wcq): threshold decrement on the
                    // caught-up-empty path
                    self.threshold.fetch_sub(1, Ordering::SeqCst);
                    return Ok(DeqOutcome::Empty);
                }
                inject!("wcq.threshold");
                // ord(helper-guard, sc=wcq): threshold decrement per dead
                // ticket; reaching zero is the empty verdict
                if self.threshold.fetch_sub(1, Ordering::SeqCst) <= 0 {
                    return Ok(DeqOutcome::Empty);
                }
                break;
            }
        }
        Err(())
    }

    // ---- helping slow path ----

    /// Drives record `rid`'s pending operation on this ring until its
    /// ctrl word leaves PENDING. Safe to call from any thread at any
    /// time; returns immediately if the record is not pending here.
    pub(crate) fn help_record(&self, recs: &RecordSet, rid: usize) {
        let rec = &recs.records[rid];
        loop {
            inject!("wcq.help");
            // ord(helper-guard, sc=wcq-rec): ctrl read opening a help iteration
            let c = rec.ctrl.load(Ordering::SeqCst);
            if c_state(c) != ST_PENDING {
                return;
            }
            let seq = c_seq(c);
            let tk = c_ticket(c);
            // ord(helper-guard, sc=wcq-rec): arg re-read; the seq+ring echo
            // rejects stale dispatches
            let arg = rec.arg.load(Ordering::SeqCst);
            if arg_seq(arg) != seq || arg_ring(arg) != self.sel {
                // Mixed-generation read (owner mid-republish) or a stale
                // dispatch; the caller re-checks.
                return;
            }
            if arg_is_enq(arg) {
                if tk == TICKET_UNSET {
                    // ord(helper-guard, sc=wcq): tail read seeding an unset
                    // enqueue ticket
                    let t0 = self.tail.load(Ordering::SeqCst);
                    // ord(helper-guard, sc=wcq-rec): installs the enqueue
                    // ticket into the ctrl word
                    let _ = rec.ctrl.compare_exchange(
                        c,
                        pack_ctrl(ST_PENDING, seq, t0),
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                    );
                    continue;
                }
                self.help_enq_step(rec, c, tk, rid as u64, arg_idx(arg));
            } else {
                if tk == TICKET_UNSET {
                    // ord(helper-guard, sc=wcq): threshold read: a negative
                    // value completes a ticketless dequeue as EMPTY
                    if self.threshold.load(Ordering::SeqCst) < 0 {
                        // ord(helper-guard, sc=wcq-rec): DONE_EMPTY transition
                        // for a ticketless dequeue under a negative threshold
                        let _ = rec.ctrl.compare_exchange(
                            c,
                            pack_ctrl(ST_DONE_EMPTY, seq, tk),
                            Ordering::SeqCst,
                            Ordering::Relaxed,
                        );
                        continue;
                    }
                    // ord(helper-guard, sc=wcq): head read seeding an unset
                    // dequeue ticket
                    let h0 = self.head.load(Ordering::SeqCst);
                    // ord(helper-guard, sc=wcq-rec): installs the dequeue
                    // ticket into the ctrl word
                    let _ = rec.ctrl.compare_exchange(
                        c,
                        pack_ctrl(ST_PENDING, seq, h0),
                        Ordering::SeqCst,
                        Ordering::Relaxed,
                    );
                    continue;
                }
                self.help_deq_step(recs, rec, c, tk, rid as u64);
            }
        }
    }

    /// One slow-enqueue step for ticket `tk` of `rec` (ctrl word `c`).
    fn help_enq_step(&self, rec: &Record, c: u64, tk: u64, tid: u64, idx: u64) {
        let seq = c_seq(c);
        let (j, cycle) = self.decode(tk);
        // ord(helper-guard, sc=wcq): entry read at the record's ticket
        let e = self.entries[j].load(Ordering::SeqCst);
        let tentative = pack_entry(cycle, true, false, tid, idx);
        let finalized = pack_entry(cycle, true, true, TID_NONE, idx);
        if e == tentative {
            // Our install is parked here: move ctrl to DONE, then make
            // the entry a plain value. Losing the ctrl race to an
            // advance means the record retries elsewhere and this
            // orphan must come back out.
            inject!("wcq.finalize");
            let done = pack_ctrl(ST_DONE_OK, seq, tk);
            let won = match rec
                .ctrl
                // ord(helper-guard, sc=wcq-rec): DONE_OK transition for a
                // parked tentative; the failure value is re-tested for the
                // already-done echo, so both orderings are SeqCst
                .compare_exchange(c, done, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => true,
                Err(cur) => cur == done,
            };
            let next = if won {
                finalized
            } else {
                pack_entry(cycle, true, true, TID_NONE, IDX_NULL)
            };
            if self
                .entries[j]
                // ord(helper-guard, sc=wcq): finalize-or-invalidate of the
                // parked tentative, decided by the ctrl race above
                .compare_exchange(tentative, next, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
                && won
            {
                self.reset_threshold();
            }
            return;
        }
        if e == finalized {
            // Final bit already published for this ticket, so the DONE
            // transition happened first; re-read ctrl and return.
            return;
        }
        if cycle_lt(e_cycle(e), cycle)
            && e_idx(e) == IDX_NULL
            // ord(helper-guard, sc=wcq): head read for the installable
            // admission check
            && (e_safe(e) || self.head.load(Ordering::SeqCst) <= tk)
        {
            // Installable: reserve the position (tail must pass it
            // before the value can count) and park the tentative.
            self.advance_tail_past(tk);
            let _ = self
                .entries[j]
                // ord(helper-guard, sc=wcq): parks the tentative entry at a
                // reserved position
                .compare_exchange(e, tentative, Ordering::SeqCst, Ordering::Relaxed);
            return;
        }
        // Dead ticket (occupied, cycle passed, or unsafe with head
        // beyond it): move the record to a fresh tail position.
        // ord(helper-guard, sc=wcq): tail read re-ticketing a dead position
        let next = self.tail.load(Ordering::SeqCst).max(tk + 1);
        // ord(helper-guard, sc=wcq-rec): moves the record to a fresh tail
        // ticket
        let _ = rec.ctrl.compare_exchange(
            c,
            pack_ctrl(ST_PENDING, seq, next.min(TICKET_UNSET - 1)),
            Ordering::SeqCst,
            Ordering::Relaxed,
        );
    }

    /// One slow-dequeue step for ticket `tk` of `rec` (ctrl word `c`).
    fn help_deq_step(&self, recs: &RecordSet, rec: &Record, c: u64, tk: u64, tid: u64) {
        let seq = c_seq(c);
        let (j, cycle) = self.decode(tk);
        // ord(helper-guard, sc=wcq): entry read at the record's ticket
        let e = self.entries[j].load(Ordering::SeqCst);
        if e_cycle(e) == cycle && !e_fin(e) {
            // A tentative enqueue sits at our position: its fate decides
            // whether there is a value here for us.
            self.resolve_tentative(recs, j, e);
            return;
        }
        if e_cycle(e) == cycle && e_idx(e) != IDX_NULL {
            if e_tid(e) == TID_NONE {
                // A live value: the ticket must be off the head counter
                // before the claim can stand.
                self.advance_head_past(tk);
                let claimed = pack_entry(cycle, e_safe(e), true, tid, e_idx(e));
                let _ = self
                    .entries[j]
                    // ord(helper-guard, sc=wcq): claims a live value for the
                    // record (tid-tagged entry)
                    .compare_exchange(e, claimed, Ordering::SeqCst, Ordering::Relaxed);
                return;
            }
            if e_tid(e) == tid {
                // Our claim is parked here: finish the ctrl handshake.
                // Only the owner consumes the entry afterwards.
                inject!("wcq.finalize");
                // ord(helper-guard, sc=wcq-rec): our claim is parked here: the
                // DONE_OK ctrl handshake
                let _ = rec.ctrl.compare_exchange(
                    c,
                    pack_ctrl(ST_DONE_OK, seq, tk),
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                );
                return;
            }
            match self.resolve_claim(recs, j, e) {
                Resolution::Retry => return,
                Resolution::Dead => {} // value went to another record; dead ticket
            }
        } else if cycle_lt(e_cycle(e), cycle) {
            // Same advance/unsafe-mark rule as the fast path.
            let new = if e_idx(e) == IDX_NULL {
                pack_entry(cycle, e_safe(e), true, TID_NONE, IDX_NULL)
            } else {
                pack_entry(e_cycle(e), false, e_fin(e), e_tid(e), e_idx(e))
            };
            if new != e
                && self
                    .entries[j]
                    // ord(helper-guard, sc=wcq): advance-empty / unsafe-mark
                    // CAS, SCQ's dequeue rule on the slow path
                    .compare_exchange(e, new, Ordering::SeqCst, Ordering::Relaxed)
                    .is_err()
            {
                return;
            }
        }
        // Dead ticket: emptiness bookkeeping, one threshold decrement
        // per abandoned ticket, charged by the ctrl-transition winner.
        // ord(helper-guard, sc=wcq): tail read classifying a dead ticket as
        // emptiness vs a lost race
        let t = self.tail.load(Ordering::SeqCst);
        if t <= tk + 1 {
            self.catchup(t, tk + 1);
            inject!("wcq.threshold");
            if rec
                .ctrl
                // ord(helper-guard, sc=wcq-rec): DONE_EMPTY transition on the
                // caught-up-empty path; the winner owns the threshold decrement
                // below
                .compare_exchange(
                    c,
                    pack_ctrl(ST_DONE_EMPTY, seq, tk),
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                // ord(helper-guard, sc=wcq): threshold decrement charged to the
                // ctrl-transition winner (exactly once per dead ticket)
                self.threshold.fetch_sub(1, Ordering::SeqCst);
            }
            return;
        }
        // ord(helper-guard, sc=wcq): head read re-ticketing a dead position
        let next = self.head.load(Ordering::SeqCst).max(tk + 1);
        let moved = pack_ctrl(ST_PENDING, seq, next.min(TICKET_UNSET - 1));
        if rec
            .ctrl
            // ord(helper-guard, sc=wcq-rec): moves the record to a fresh head
            // ticket; the winner owns the decrement below
            .compare_exchange(c, moved, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            inject!("wcq.threshold");
            // ord(helper-guard, sc=wcq): threshold decrement per dead ticket;
            // exhausting it completes the record as EMPTY
            if self.threshold.fetch_sub(1, Ordering::SeqCst) <= 0 {
                // ord(helper-guard, sc=wcq-rec): DONE_EMPTY transition when the
                // decrement exhausted the threshold
                let _ = rec.ctrl.compare_exchange(
                    moved,
                    pack_ctrl(ST_DONE_EMPTY, seq, next.min(TICKET_UNSET - 1)),
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                );
            }
        }
    }

    /// Resolves a tentative (final=0) entry `e` read from slot `j`:
    /// finalize it if its record is (or just became) DONE at this
    /// ticket, invalidate it if the record moved on.
    fn resolve_tentative(&self, recs: &RecordSet, j: usize, e: u64) {
        let rid = e_tid(e) as usize;
        let cycle = e_cycle(e);
        let idx = e_idx(e);
        let rec = &recs.records[rid];
        // ord(helper-guard, sc=wcq-rec): ctrl read of the tentative's record
        let c = rec.ctrl.load(Ordering::SeqCst);
        // ord(helper-guard, sc=wcq-rec): arg read; the full seq/ring/idx echo
        // decides whether the tentative still belongs to the record
        let arg = rec.arg.load(Ordering::SeqCst);
        let here = c_ticket(c) != TICKET_UNSET && {
            let (j2, cy2) = self.decode(c_ticket(c));
            j2 == j && cy2 == cycle
        };
        let matches = here
            && arg_seq(arg) == c_seq(c)
            && arg_is_enq(arg)
            && arg_ring(arg) == self.sel
            && arg_idx(arg) == idx;
        if matches && c_state(c) == ST_PENDING {
            inject!("wcq.finalize");
            // ord(helper-guard, sc=wcq-rec): DONE_OK transition on behalf of
            // the parked record
            let _ = rec.ctrl.compare_exchange(
                c,
                pack_ctrl(ST_DONE_OK, c_seq(c), c_ticket(c)),
                Ordering::SeqCst,
                Ordering::Relaxed,
            );
            return; // re-read; next resolution sees DONE
        }
        if matches && c_state(c) == ST_DONE_OK {
            inject!("wcq.finalize");
            let finalized = pack_entry(cycle, true, true, TID_NONE, idx);
            if self
                .entries[j]
                // ord(helper-guard, sc=wcq): publishes the final bit of a won
                // tentative
                .compare_exchange(e, finalized, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                self.reset_threshold();
            }
            return;
        }
        // The record has moved past this ticket (or completed another
        // generation): the orphan never counted, take it out.
        inject!("wcq.finalize");
        let consumed = pack_entry(cycle, true, true, TID_NONE, IDX_NULL);
        let _ = self
            .entries[j]
            // ord(helper-guard, sc=wcq): invalidates an orphaned tentative (its
            // record moved on)
            .compare_exchange(e, consumed, Ordering::SeqCst, Ordering::Relaxed);
    }

    /// Resolves a claimed (tid != NONE, final) value entry `e` at slot
    /// `j` against its record.
    fn resolve_claim(&self, recs: &RecordSet, j: usize, e: u64) -> Resolution {
        let rid = e_tid(e) as usize;
        let cycle = e_cycle(e);
        let rec = &recs.records[rid];
        // ord(helper-guard, sc=wcq-rec): ctrl read of the claiming record
        let c = rec.ctrl.load(Ordering::SeqCst);
        // ord(helper-guard, sc=wcq-rec): arg read; the seq/ring echo validates
        // the claim's provenance
        let arg = rec.arg.load(Ordering::SeqCst);
        let matches = c_ticket(c) != TICKET_UNSET
            && arg_seq(arg) == c_seq(c)
            && !arg_is_enq(arg)
            && arg_ring(arg) == self.sel
            && {
                let (j2, cy2) = self.decode(c_ticket(c));
                j2 == j && cy2 == cycle
            };
        if matches && c_state(c) == ST_PENDING {
            inject!("wcq.finalize");
            // ord(helper-guard, sc=wcq-rec): DONE_OK transition finishing the
            // claim for its record
            let _ = rec.ctrl.compare_exchange(
                c,
                pack_ctrl(ST_DONE_OK, c_seq(c), c_ticket(c)),
                Ordering::SeqCst,
                Ordering::Relaxed,
            );
            return Resolution::Retry;
        }
        if matches && c_state(c) == ST_DONE_OK {
            // The claim won; only the owner consumes it (it reads the
            // data slot). For everyone else the position is spent.
            return Resolution::Dead;
        }
        // Defensive: a claim whose record no longer stands behind it.
        // Unreachable by the full-word-CAS argument (see module docs),
        // but restoring the value is the safe direction if it ever
        // fires; the CAS fails harmlessly against any newer word.
        let restored = pack_entry(cycle, e_safe(e), true, TID_NONE, e_idx(e));
        let _ = self
            .entries[j]
            // ord(helper-guard, sc=wcq): defensive value-restore for a claim
            // with no record behind it (unreachable by the full-word-CAS
            // argument; restoring is the safe direction)
            .compare_exchange(e, restored, Ordering::SeqCst, Ordering::Relaxed);
        Resolution::Retry
    }

    /// Owner-side: after an enqueue record reached DONE_OK at `tk`,
    /// make sure the winning tentative got its final bit (the DONE
    /// transition winner might have been killed in between).
    pub(crate) fn ensure_finalized(&self, tk: u64, tid: u64, idx: u64) {
        let (j, cycle) = self.decode(tk);
        let tentative = pack_entry(cycle, true, false, tid, idx);
        let finalized = pack_entry(cycle, true, true, TID_NONE, idx);
        inject!("wcq.finalize");
        if self
            .entries[j]
            // ord(helper-guard, sc=wcq): owner-side: publishes the final bit if
            // the DONE-transition winner died between the ctrl CAS and the
            // entry CAS
            .compare_exchange(tentative, finalized, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            self.reset_threshold();
        }
    }

    /// Owner-side: consume this record's won claim at ticket `tk`,
    /// returning the data index it carried.
    pub(crate) fn consume_claim(&self, tk: u64, tid: u64) -> u64 {
        let (j, cycle) = self.decode(tk);
        loop {
            // ord(helper-guard, sc=wcq): re-reads the claimed entry before
            // consuming it
            let e = self.entries[j].load(Ordering::SeqCst);
            debug_assert!(
                e_cycle(e) == cycle && e_fin(e) && e_tid(e) == tid && e_idx(e) != IDX_NULL,
                "claim must stand until its owner consumes it"
            );
            let idx = e_idx(e);
            // Keep the safe bit as-is: a later-cycle dequeuer may have
            // stripped it while the claim sat here.
            let consumed = pack_entry(cycle, e_safe(e), true, TID_NONE, IDX_NULL);
            if self
                .entries[j]
                // ord(helper-guard, sc=wcq): owner consumes its won claim (idx
                // swapped out); the failure value is re-read in the loop, so
                // both orderings are SeqCst
                .compare_exchange(e, consumed, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return idx;
            }
        }
    }

    /// Drop-time walk (exclusive access): every data index still
    /// referenced by a value-carrying entry — plain, tentative, or
    /// claimed. Tentative/claimed entries can reference an index a
    /// second time transiently; the caller dedups.
    pub(crate) fn live_indices(&self) -> Vec<u64> {
        self.entries
            .iter()
            // ord(reclamation): teardown walk under exclusive access (Drop); no
            // concurrent access remains
            .map(|e| e.load(Ordering::Relaxed))
            .filter(|&e| e_idx(e) != IDX_NULL)
            .map(e_idx)
            .collect()
    }

    /// Current threshold-counter value (diagnostic; `< 0` = observed
    /// empty since the last completed enqueue).
    #[inline]
    pub(crate) fn threshold_value(&self) -> i64 {
        // ord(stats, sc=quiescent): diagnostic threshold snapshot
        self.threshold.load(Ordering::SeqCst)
    }

    /// Cumulative threshold-counter resets (diagnostic).
    #[inline]
    pub(crate) fn resets(&self) -> u64 {
        // ord(stats): reset-counter snapshot; Relaxed pairs with the Relaxed
        // bump
        self.resets.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn entry_packing_roundtrips() {
        let e = pack_entry(0x2FFF_FFFF, true, false, 7, 12345);
        assert_eq!(e_cycle(e), 0x2FFF_FFFF);
        assert!(e_safe(e));
        assert!(!e_fin(e));
        assert_eq!(e_tid(e), 7);
        assert_eq!(e_idx(e), 12345);
        let f = pack_entry(0, false, true, TID_NONE, IDX_NULL);
        assert!(!e_safe(f));
        assert!(e_fin(f));
        assert_eq!(e_idx(f), IDX_NULL);
    }

    #[test]
    fn ctrl_packing_roundtrips() {
        let c = pack_ctrl(ST_DONE_OK, 0xABCDE, 0x3FF_FFFF_FFFE);
        assert_eq!(c_state(c), ST_DONE_OK);
        assert_eq!(c_seq(c), 0xABCDE);
        assert_eq!(c_ticket(c), 0x3FF_FFFF_FFFE);
        let a = pack_arg(0xABCDE, true, 1, 99);
        assert_eq!(arg_seq(a), 0xABCDE);
        assert!(arg_is_enq(a));
        assert_eq!(arg_ring(a), 1);
        assert_eq!(arg_idx(a), 99);
    }

    #[test]
    fn cycle_lt_wraps() {
        assert!(cycle_lt(CYCLE_MASK, 0)); // -1 < 0 across the wrap
        assert!(cycle_lt(CYCLE_MASK - 1, 1));
        assert!(!cycle_lt(0, CYCLE_MASK)); // 0 is *after* -1
        assert!(!cycle_lt(5, 5));
        assert!(cycle_lt(5, 6));
    }

    #[test]
    fn decode_remap_is_a_permutation() {
        let ring = Ring::new(6, 0, 0);
        let size = 1u64 << 6;
        let mut seen = vec![false; size as usize];
        for t in 0..size {
            let (j, cycle) = ring.decode(t);
            assert_eq!(cycle, 0);
            assert!(!seen[j], "remap must be injective");
            seen[j] = true;
        }
        // Next lap hits the same slots at cycle 1.
        let (j0, c1) = ring.decode(size);
        assert_eq!(c1, 1);
        let (j0b, _) = ring.decode(0);
        assert_eq!(j0, j0b);
    }

    proptest! {
        /// The wrapping cycle comparison must behave like a signed
        /// distance everywhere, including across the 30-bit wrap.
        #[test]
        fn cycle_lt_matches_wrapping_distance(a in 0u64..(1 << 30), d in 0u64..(1 << 29)) {
            let b = (a + d) & CYCLE_MASK;
            if d == 0 {
                prop_assert!(!cycle_lt(a, b));
                prop_assert!(!cycle_lt(b, a));
            } else {
                prop_assert!(cycle_lt(a, b), "a={a} b={b} d={d}");
                prop_assert!(!cycle_lt(b, a), "a={a} b={b} d={d}");
            }
        }

        /// Cycle tags produced by real tickets straddling the wrap
        /// boundary stay ordered: the tag of a later ticket is never
        /// `cycle_lt` an earlier one within the half-space window.
        #[test]
        fn ticket_cycles_stay_ordered_across_wrap(lag in 0u64..512) {
            let ring = Ring::new(4, 0, 0);
            // Tickets whose cycle is just below the wrap point.
            let base = ((CYCLE_MASK - 2) << 4) + 7;
            let (_, c_old) = ring.decode(base - (lag << 4));
            let (_, c_new) = ring.decode(base + (3 << 4));
            prop_assert!(cycle_lt(c_old, c_new) || lag == 0 && c_old == c_new);
        }
    }
}
