//! The Kogan–Petrank wait-free MPMC FIFO queue (PPoPP 2011) — the
//! paper's primary contribution, transcribed from the Java listings of
//! Figures 1–6 into Rust.
//!
//! # Algorithm
//!
//! The queue extends Michael & Scott's lock-free queue with a
//! priority-based *helping* scheme:
//!
//! 1. A thread starting an operation picks a **phase** number greater
//!    than (or equal to — ties are benign) every phase picked before it,
//!    Bakery-doorway style, and publishes an operation descriptor in the
//!    shared `state` array.
//! 2. It then **helps** every thread whose descriptor is pending with a
//!    phase ≤ its own (so operations older than it are finished before it
//!    returns), and finally returns once its own descriptor is no longer
//!    pending.
//! 3. Each operation is split into **three atomic steps** so that any
//!    number of helpers can share the work without applying it twice:
//!    append-node / clear-pending / swing-tail for `enqueue`, and
//!    lock-sentinel (`deqTid` CAS) / clear-pending / swing-head for
//!    `dequeue`, with an extra descriptor-points-at-sentinel stage that
//!    resolves the empty-queue race.
//!
//! Because a thread returns only after every operation with a phase not
//! exceeding its own is linearized, each call completes in a bounded
//! number of steps regardless of scheduling: **wait-freedom**.
//!
//! # Variants
//!
//! The paper evaluates the base algorithm plus two optimizations (§3.3),
//! all expressible through [`Config`]:
//!
//! | Paper label | Constructor | Meaning |
//! |---|---|---|
//! | `base WF` | [`Config::base()`] | help all peers; phase = `maxPhase()+1` scan |
//! | `opt WF (1)` | [`Config::opt1()`] | help at most one peer per operation, cyclically |
//! | `opt WF (2)` | [`Config::opt2()`] | phase from an atomic counter |
//! | `opt WF (1+2)` | [`Config::opt_both()`] | both |
//!
//! plus [`HelpPolicy::RandomChunk`] (the paper's "random chunk" remark,
//! probabilistic wait-freedom) and the `validate_before_cas` enhancement.
//! Every configuration runs on both reclamation backends — epochs
//! ([`WfQueue`]) and the §3.4 hazard pointers ([`WfQueueHp`]); see
//! *Memory management*.
//!
//! # Memory management
//!
//! The paper's base algorithm leans on the Java GC; §3.4 discusses
//! non-GC runtimes, and §3.3 recommends reusing descriptor objects
//! rather than allocating per transition. This implementation follows
//! both through to an **allocation-free steady state**:
//!
//! * **Descriptors are not heap objects.** Each `state[tid]` entry is a
//!   cache-padded pair of atomic words (packed
//!   pending/enqueue/node-address plus a version tag, and the phase) —
//!   see `desc.rs`. Transitions are in-place CASes that bump the
//!   version, so a helper CAS armed with a stale view fails even when
//!   node recycling makes the *fields* reappear (the ABA the seed's
//!   alloc-per-transition scheme dodged by address freshness).
//! * **Nodes are recycled.** Retired sentinels return to a capped pool
//!   shared by every handle once no reader can reach them, and an
//!   enqueue steals the pool's whole chain before it allocates.
//!
//! Reclamation itself is a type parameter: the algorithm is written
//! once, as [`KpQueue`]/[`KpHandle`], over a sealed [`Reclaim`] backend
//! with exactly two implementations, the only thing §3.4 says a non-GC
//! runtime changes:
//!
//! | Alias | Backend | Reclamation |
//! |---|---|---|
//! | [`WfQueue`] / [`WfHandle`] | [`Epoch`] | crossbeam-epoch pins; a handle's retired sentinels mature in its own cache (reused once `tag + 2 <= global_epoch()`, [crossbeam-epoch]'s own free rule) and spill into the shared pool. Lock-free. |
//! | [`WfQueueHp`] / [`WfHpHandle`] | [`Hazard`] | Michael's hazard pointers (two slots per handle) with a two-token disposal gate on the value node a completed dequeue hands its owner. Wait-free. |
//!
//! See DESIGN.md for the substitution rationale and the full
//! descriptor-memory discussion.
//!
//! # Thread identities
//!
//! `NUM_THRDS` in the paper becomes the `max_threads` constructor
//! argument. Threads acquire a slot by calling [`WfQueue::register`],
//! which draws a virtual ID from a wait-free long-lived-renaming pool
//! (`idpool`), the relaxation §3.3 describes; dropping the handle
//! releases the slot.
//!
//! # Memory ordering
//!
//! The seed used blanket `SeqCst`, matching the Java `volatile`
//! semantics of the paper's listings. The orderings have since been
//! audited; the surprising outcome is that most hot loads must *stay*
//! SeqCst once descriptors and nodes are reused:
//!
//! | Site | Ordering | Why |
//! |---|---|---|
//! | phase scan (`max_phase`) | SeqCst | Bakery doorway: every phase chosen before the scan must be visible to it (Lemma 1) |
//! | `is_still_pending`, `help_index` gate | SeqCst | helping obligation: an Acquire-stale "not pending" would let helpers decline to help a pending op (Lemma 2) |
//! | L73 descriptor read in `help_enq` | SeqCst | single-read append argument, extended to recycling (see `queue.rs`) |
//! | L90/L146 reads in `help_finish_*` | SeqCst | with reuse, an Acquire-stale *completed* word can equal the transition target field-for-field and no-op-skip step 2, swinging tail/head while the real op is still pending |
//! | slot publish/reset/transition | SeqCst | doorway visibility + the SC chains above terminate at these stores |
//! | `len_approx` / `is_empty` walks | Acquire | advisory diagnostics; only need initialised-node visibility |
//! | owner's dequeue epilogue (L103–107) | Acquire | reads the thread's own completed slot; freshness follows from the SeqCst loop exit plus coherence |
//! | stats counters | Relaxed | per-tid single-writer cells (load + store, no RMW), no synchronisation role |
//!
//! Each relaxation (and each forced non-relaxation) is documented at
//! its site in `queue.rs`/`desc.rs` with the counterexample that pins
//! it down.
//!
//! # Example
//!
//! ```
//! use kp_queue::{Config, WfQueue};
//! use kp_queue::{ConcurrentQueue, QueueHandle};
//!
//! let q: WfQueue<u64> = WfQueue::with_config(8, Config::opt_both());
//! std::thread::scope(|s| {
//!     for t in 0..4u64 {
//!         let q = &q;
//!         s.spawn(move || {
//!             let mut h = q.register().unwrap();
//!             for i in 0..100 {
//!                 h.enqueue(t * 1000 + i);
//!             }
//!         });
//!     }
//! });
//! let mut h = q.register().unwrap();
//! let mut n = 0;
//! while h.dequeue().is_some() {
//!     n += 1;
//! }
//! assert_eq!(n, 400);
//! ```
//!
//! [crossbeam-epoch]: https://docs.rs/crossbeam-epoch

#![warn(missing_docs)]

mod chaos_hooks;
mod config;
mod desc;
mod epoch;
mod handle;
mod hazard;
mod node;
mod pool;
mod queue;
mod reap;
mod reclaim;
mod recycle;
mod stats;

pub use config::{Config, HelpPolicy, PhasePolicy};
#[doc(hidden)]
pub use handle::KpPendingOp;
pub use handle::KpHandle;
pub use queue::KpQueue;
pub use reclaim::{Epoch, Hazard, Reclaim};
pub use stats::StatsSnapshot;

/// The Kogan–Petrank queue on epoch-based reclamation.
pub type WfQueue<T> = KpQueue<T, Epoch>;
/// A registered thread's handle to a [`WfQueue`].
pub type WfHandle<'q, T> = KpHandle<'q, T, Epoch>;
/// An unhelped in-flight operation on a [`WfQueue`] (test hook).
#[doc(hidden)]
pub type PendingOp<'h, 'q, T> = KpPendingOp<'h, 'q, T, Epoch>;

/// The Kogan–Petrank queue with hazard-pointer reclamation (paper
/// §3.4): both the queue operations *and* memory management are
/// wait-free.
pub type WfQueueHp<T> = KpQueue<T, Hazard>;
/// A registered thread's handle to a [`WfQueueHp`].
pub type WfHpHandle<'q, T> = KpHandle<'q, T, Hazard>;
/// An unhelped in-flight operation on a [`WfQueueHp`] (test hook).
#[doc(hidden)]
pub type PendingOpHp<'h, 'q, T> = KpPendingOp<'h, 'q, T, Hazard>;

pub use queue_traits::{ConcurrentQueue, QueueHandle, RegistrationError};

#[cfg(test)]
mod hp_tests;
#[cfg(test)]
mod tests;
