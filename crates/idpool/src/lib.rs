//! Wait-free *long-lived renaming*: a fixed pool of small integer IDs.
//!
//! The Kogan–Petrank queue (like most helping-based wait-free algorithms)
//! assumes each thread owns a unique ID in `0..NUM_THRDS`, used to index
//! the shared `state` array. Section 3.3 of the paper notes that this
//! assumption can be relaxed for applications with dynamically created
//! threads by acquiring and releasing *virtual* IDs from a small name
//! space through a long-lived renaming algorithm.
//!
//! [`IdPool`] is such an algorithm: `capacity` slots, each claimed with a
//! single CAS. [`IdPool::acquire`] scans at most `capacity` slots, so it
//! completes in a bounded number of steps regardless of other threads —
//! it is wait-free. A rotating start hint spreads concurrent acquirers
//! across the slot array to keep the common case at one CAS.
//!
//! # Leases and reaping
//!
//! Each slot packs a **generation counter** next to its state, and a
//! claim is a *lease* on `(id, generation)` rather than plain ownership:
//!
//! * [`IdPool::acquire`] claims `Free(g)` → `Claimed(g)` and the
//!   returned [`IdGuard`] remembers `g`.
//! * [`IdGuard`]'s drop releases with a CAS `Claimed(g)` → `Free(g+1)`.
//!   If the CAS fails the lease was already revoked (the slot was
//!   reaped, and possibly re-acquired at a later generation) and the
//!   release is a **no-op** — a stale guard can never free a successor's
//!   claim.
//! * A reaper revokes an abandoned lease with
//!   [`IdPool::begin_reap`] (`Claimed(g)` → `Reaping(g)`, granting it
//!   exclusive reap rights for generation `g`) and completes with
//!   [`IdPool::finish_reap`] (`Reaping(g)` → `Free(g+1)`). If the reaper
//!   itself dies mid-reap, a successor takes over with
//!   [`IdPool::takeover_reap`] (`Reaping(g)` → `Reaping(g+1)`): the
//!   generation bump means exactly one successor wins and the original
//!   reaper's `finish_reap(g)` becomes a harmless no-op.
//!
//! Every transition is a single bounded CAS, so the pool stays wait-free.
//! The generation is 62 bits wide; wrap-around is not a practical
//! concern (it would take centuries of continuous churn on one slot).
//!
//! ```
//! use idpool::{IdPool, SlotState};
//!
//! let pool = IdPool::new(4);
//! let a = pool.acquire().unwrap();
//! let b = pool.acquire().unwrap();
//! assert_ne!(a.id(), b.id());
//! drop(a); // slot is released and may be re-acquired
//! assert_eq!(pool.in_use(), 1);
//! let view = pool.inspect(b.id()).unwrap();
//! assert_eq!(view.state, SlotState::Claimed);
//! ```

#![warn(missing_docs)]

use std::fmt;
use kp_sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use kp_sync::CachePadded;

// Fault-injection sites (`idpool.acquire` / `idpool.release`), compiled
// away unless the `chaos` feature is on — see the `chaos` crate.
#[cfg(feature = "chaos")]
macro_rules! inject {
    ($site:expr) => {
        ::chaos::hit($site)
    };
}
#[cfg(not(feature = "chaos"))]
macro_rules! inject {
    ($site:expr) => {};
}

/// Slot states, packed into the low bits of each slot word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Unclaimed; `acquire` may take it.
    Free,
    /// Leased to a live [`IdGuard`] (or to a holder that abandoned it —
    /// the pool cannot tell; that is what reaping is for).
    Claimed,
    /// A reaper holds exclusive reap rights and is tearing the previous
    /// lease down.
    Reaping,
}

/// A snapshot of one slot: its state and lease generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotView {
    /// Current lease generation of the slot.
    pub generation: u64,
    /// Current state of the slot.
    pub state: SlotState,
}

const STATE_BITS: u32 = 2;
const STATE_MASK: u64 = 0b11;
const FREE: u64 = 0;
const CLAIMED: u64 = 1;
const REAPING: u64 = 2;

#[inline]
const fn pack(generation: u64, state: u64) -> u64 {
    (generation << STATE_BITS) | state
}

#[inline]
const fn generation_of(word: u64) -> u64 {
    word >> STATE_BITS
}

#[inline]
const fn state_of(word: u64) -> u64 {
    word & STATE_MASK
}

fn decode(word: u64) -> SlotView {
    let state = match state_of(word) {
        FREE => SlotState::Free,
        CLAIMED => SlotState::Claimed,
        REAPING => SlotState::Reaping,
        // INVARIANT: only the three constants above are ever stored
        // (every transition goes through pack() with one of them); the
        // fourth bit pattern is unreachable.
        _ => {
            debug_assert!(false, "corrupt idpool slot word {word:#x}");
            SlotState::Claimed
        }
    };
    SlotView {
        generation: generation_of(word),
        state,
    }
}

/// A fixed-capacity pool of reusable small integer IDs with lease
/// generations (see the crate docs for the reap protocol).
///
/// All operations are wait-free: `acquire` performs at most one CAS per
/// slot and visits each slot at most once; every other transition is a
/// single CAS.
pub struct IdPool {
    /// Packed `(generation << 2) | state` per slot. One cache line per
    /// slot so that releases by one thread do not invalidate the line
    /// another thread is probing.
    slots: Box<[CachePadded<AtomicU64>]>,
    /// Rotating hint for where the next acquirer should start probing.
    next_hint: CachePadded<AtomicUsize>,
}

impl IdPool {
    /// Creates a pool with IDs `0..capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "IdPool capacity must be positive");
        let slots = (0..capacity)
            .map(|_| CachePadded::new(AtomicU64::new(pack(0, FREE))))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        IdPool {
            slots,
            next_hint: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Number of IDs managed by this pool.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of IDs currently claimed or mid-reap. Linearizable only in
    /// quiescent states; intended for diagnostics and tests.
    pub fn in_use(&self) -> usize {
        self.slots
            .iter()
            // ord(stats): diagnostic count; Acquire gives a conservative
            // snapshot
            .filter(|s| state_of(s.load(Ordering::Acquire)) != FREE)
            .count()
    }

    /// A snapshot of slot `id`'s state and generation, or `None` when
    /// `id` is out of range. Advisory: the slot may change immediately
    /// after the load; act on it only through the CAS-based transitions.
    pub fn inspect(&self, id: usize) -> Option<SlotView> {
        let slot = self.slots.get(id)?;
        // ord(doorway): reaper-side lease snapshot; Acquire pairs with the
        // claim/reap CASes so the observed state and generation travel together
        Some(decode(slot.load(Ordering::Acquire)))
    }

    /// True when the lease `(id, generation)` is still the slot's
    /// current `Claimed` lease. Used by lease holders to detect that
    /// they were reaped out from under themselves (a lease-contract
    /// violation — see `begin_reap`).
    pub fn lease_holds(&self, id: usize, generation: u64) -> bool {
        self.inspect(id)
            .is_some_and(|v| v.state == SlotState::Claimed && v.generation == generation)
    }

    /// Claims a free ID, returning a guard that releases it on drop.
    ///
    /// Returns `None` if every slot is claimed at the instant each was
    /// probed. Wait-free: at most `capacity` CAS attempts.
    pub fn acquire(&self) -> Option<IdGuard<'_>> {
        inject!("idpool.acquire");
        let n = self.slots.len();
        // Relaxed is fine for a pure performance hint.
        // ord(stats): probe-start rotation hint; pure performance, no
        // synchronization intent
        let start = self.next_hint.fetch_add(1, Ordering::Relaxed) % n;
        for probe in 0..n {
            let i = (start + probe) % n;
            if let Some(generation) = self.try_claim(i) {
                return Some(IdGuard {
                    pool: self,
                    id: i,
                    generation,
                });
            }
        }
        None
    }

    /// Claims a *specific* ID if free. Useful for deterministic tests.
    pub fn acquire_exact(&self, id: usize) -> Option<IdGuard<'_>> {
        if id >= self.slots.len() {
            return None;
        }
        self.try_claim(id).map(|generation| IdGuard {
            pool: self,
            id,
            generation,
        })
    }

    /// One claim attempt on slot `i`: `Free(g)` → `Claimed(g)`.
    fn try_claim(&self, i: usize) -> Option<u64> {
        // ord(doorway): speculative free-slot probe; the claim itself is the
        // CAS below
        let word = self.slots[i].load(Ordering::Acquire);
        if state_of(word) != FREE {
            return None;
        }
        let generation = generation_of(word);
        self.slots[i]
            // ord(doorway): claims a virtual tid with a bumped generation
            // (SS3.3 long-lived renaming made lease-based, DESIGN.md SS13.2):
            // success Acquire pairs with release/finish_reap so tid-associated
            // state is visible to the new owner; a failed probe acquires
            // nothing
            .compare_exchange(
                word,
                pack(generation, CLAIMED),
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .ok()
            .map(|_| generation)
    }

    /// `Claimed(g)` → `Free(g+1)`. A failed CAS means the lease was
    /// already revoked by a reaper (and the slot possibly re-acquired at
    /// a later generation): the release is deliberately a no-op then, so
    /// a stale guard can never free a successor's claim.
    fn release(&self, id: usize, generation: u64) {
        inject!("idpool.release");
        debug_assert!(id < self.slots.len());
        // ord(doorway): returns the tid (Claimed -> Free at the owner's
        // generation); AcqRel publishes the owner's final writes to the next
        // claimant and fails silently on a revoked lease -- the idpool
        // double-release protection
        let _ = self.slots[id].compare_exchange(
            pack(generation, CLAIMED),
            pack(generation + 1, FREE),
            Ordering::AcqRel,
            Ordering::Relaxed,
        );
    }

    /// Revokes an abandoned lease: `Claimed(generation)` → `Reaping
    /// (generation)`. Success grants the caller *exclusive* reap rights
    /// for this generation; it must eventually call
    /// [`finish_reap`](IdPool::finish_reap) with the same generation
    /// (or die and be taken over via
    /// [`takeover_reap`](IdPool::takeover_reap)).
    ///
    /// Returns `false` when the slot is no longer `Claimed(generation)`
    /// — the holder released it, another reaper got there first, or the
    /// generation moved on.
    pub fn begin_reap(&self, id: usize, generation: u64) -> bool {
        if id >= self.slots.len() {
            return false;
        }
        self.slots[id]
            // ord(doorway): lease revocation CAS (Claimed -> Reaping at the
            // observed generation, DESIGN.md SS13.2); AcqRel acquires the
            // owner's published state and releases reap exclusivity to
            // finish/takeover
            .compare_exchange(
                pack(generation, CLAIMED),
                pack(generation, REAPING),
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Completes a reap: `Reaping(generation)` → `Free(generation+1)`.
    /// Returns `false` when the reap was taken over (the generation
    /// moved on) — the caller lost its reap rights and must not treat
    /// the slot as its own.
    pub fn finish_reap(&self, id: usize, generation: u64) -> bool {
        if id >= self.slots.len() {
            return false;
        }
        self.slots[id]
            // ord(doorway): reap completion CAS (Reaping -> Free, bumped
            // generation); the Release half publishes the reaper's cleanup to
            // the slot's next claimant
            .compare_exchange(
                pack(generation, REAPING),
                pack(generation + 1, FREE),
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Adopts a reap whose reaper appears dead: `Reaping(generation)` →
    /// `Reaping(generation+1)`. The generation bump guarantees at most
    /// one successor wins; the original reaper's
    /// [`finish_reap`](IdPool::finish_reap)`(generation)` then fails
    /// harmlessly. On success returns the new generation the caller now
    /// owns (pass it to `finish_reap`).
    pub fn takeover_reap(&self, id: usize, generation: u64) -> Option<u64> {
        if id >= self.slots.len() {
            return None;
        }
        self.slots[id]
            // ord(doorway): reap adoption CAS (Reaping -> Reaping, bumped
            // generation) invalidating a dead reaper's claim so a revived
            // reaper cannot finish twice; same pairing as begin_reap
            .compare_exchange(
                pack(generation, REAPING),
                pack(generation + 1, REAPING),
                Ordering::AcqRel,
                Ordering::Relaxed,
            )
            .ok()
            .map(|_| generation + 1)
    }
}

impl fmt::Debug for IdPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IdPool")
            .field("capacity", &self.capacity())
            .field("in_use", &self.in_use())
            .finish()
    }
}

/// RAII guard for a claimed ID. Releasing happens on drop and is a
/// no-op if the lease was reaped in the meantime (stale-release
/// protection — see the crate docs).
pub struct IdGuard<'p> {
    pool: &'p IdPool,
    id: usize,
    generation: u64,
}

impl IdGuard<'_> {
    /// The claimed ID, in `0..pool.capacity()`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The lease generation this guard holds.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// True while this guard's lease has not been revoked by a reaper.
    pub fn lease_holds(&self) -> bool {
        self.pool.lease_holds(self.id, self.generation)
    }
}

impl Drop for IdGuard<'_> {
    fn drop(&mut self) {
        self.pool.release(self.id, self.generation);
    }
}

impl fmt::Debug for IdGuard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IdGuard")
            .field("id", &self.id)
            .field("generation", &self.generation)
            .finish()
    }
}

// SAFETY: An IdGuard can be moved to (and dropped on) another thread; the pool it
// references is Sync.
unsafe impl Send for IdGuard<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;

    #[test]
    fn acquire_all_then_exhausted() {
        let pool = IdPool::new(3);
        let a = pool.acquire().unwrap();
        let b = pool.acquire().unwrap();
        let c = pool.acquire().unwrap();
        let ids: HashSet<_> = [a.id(), b.id(), c.id()].into_iter().collect();
        assert_eq!(ids.len(), 3, "all IDs distinct");
        assert!(ids.iter().all(|&i| i < 3));
        assert!(pool.acquire().is_none(), "pool exhausted");
        drop(b);
        let d = pool.acquire().expect("released slot is reusable");
        assert!(d.id() < 3);
    }

    #[test]
    fn acquire_exact() {
        let pool = IdPool::new(4);
        let g = pool.acquire_exact(2).unwrap();
        assert_eq!(g.id(), 2);
        assert!(pool.acquire_exact(2).is_none(), "slot 2 already claimed");
        assert!(pool.acquire_exact(99).is_none(), "out of range");
        drop(g);
        assert_eq!(pool.acquire_exact(2).unwrap().id(), 2);
    }

    #[test]
    fn in_use_counts() {
        let pool = IdPool::new(8);
        assert_eq!(pool.in_use(), 0);
        let guards: Vec<_> = (0..5).map(|_| pool.acquire().unwrap()).collect();
        assert_eq!(pool.in_use(), 5);
        drop(guards);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = IdPool::new(0);
    }

    #[test]
    fn generations_advance_per_lease() {
        let pool = IdPool::new(1);
        let a = pool.acquire_exact(0).unwrap();
        assert_eq!(a.generation(), 0);
        drop(a);
        let b = pool.acquire_exact(0).unwrap();
        assert_eq!(b.generation(), 1, "release bumps the generation");
        assert!(b.lease_holds());
    }

    #[test]
    fn reap_protocol_roundtrip() {
        let pool = IdPool::new(2);
        let g = pool.acquire_exact(0).unwrap();
        let generation = g.generation();
        std::mem::forget(g); // abandon the lease (guard never drops)

        assert!(pool.begin_reap(0, generation));
        assert!(
            !pool.begin_reap(0, generation),
            "reap rights are exclusive"
        );
        assert_eq!(
            pool.inspect(0).unwrap(),
            SlotView {
                generation,
                state: SlotState::Reaping
            }
        );
        assert!(!pool.lease_holds(0, generation), "lease revoked");
        assert!(pool.finish_reap(0, generation));
        let next = pool.acquire_exact(0).expect("reaped slot is reusable");
        assert_eq!(next.generation(), generation + 1);
    }

    #[test]
    fn stale_release_after_reap_is_noop() {
        // The satellite-task scenario: a holder stalls past its lease,
        // gets reaped, the slot is re-acquired — and then the original
        // guard finally drops. The stale release must not disturb the
        // new lease.
        let pool = IdPool::new(1);
        let stalled = pool.acquire_exact(0).unwrap();
        assert!(pool.begin_reap(0, stalled.generation()));
        assert!(pool.finish_reap(0, stalled.generation()));
        let successor = pool.acquire_exact(0).unwrap();
        assert_eq!(successor.generation(), 1);

        drop(stalled); // stale release: CAS on generation 0 fails, no-op
        assert!(successor.lease_holds(), "successor's lease untouched");
        assert_eq!(pool.in_use(), 1);
        drop(successor);
        assert_eq!(pool.in_use(), 0);
        assert_eq!(pool.acquire_exact(0).unwrap().generation(), 2);
    }

    #[test]
    fn reap_takeover_bumps_generation_exactly_once() {
        let pool = IdPool::new(1);
        let g = pool.acquire_exact(0).unwrap();
        let g0 = g.generation();
        std::mem::forget(g);

        assert!(pool.begin_reap(0, g0)); // reaper A
        let g1 = pool.takeover_reap(0, g0).expect("reaper B adopts"); // A died
        assert_eq!(g1, g0 + 1);
        assert!(
            pool.takeover_reap(0, g0).is_none(),
            "only one successor wins a takeover"
        );
        assert!(!pool.finish_reap(0, g0), "A's finish is a stale no-op");
        assert!(pool.finish_reap(0, g1), "B completes the reap");
        assert_eq!(pool.acquire_exact(0).unwrap().generation(), g1 + 1);
    }

    #[test]
    fn begin_reap_fails_on_free_or_stale_slots() {
        let pool = IdPool::new(2);
        assert!(!pool.begin_reap(0, 0), "cannot reap a free slot");
        let g = pool.acquire_exact(0).unwrap();
        assert!(!pool.begin_reap(0, g.generation() + 1), "wrong generation");
        assert!(!pool.begin_reap(99, 0), "out of range");
        drop(g);
        assert!(!pool.begin_reap(0, 0), "released slot is not reapable");
    }

    #[test]
    fn concurrent_acquire_is_unique() {
        const THREADS: usize = 16;
        let pool = IdPool::new(THREADS);
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let mut seen = Vec::new();
                        for _ in 0..1000 {
                            let g = pool.acquire().expect("capacity == thread count");
                            seen.push(g.id());
                        }
                        seen
                    })
                })
                .collect();
            for h in handles {
                let ids = h.join().unwrap();
                assert!(ids.iter().all(|&i| i < THREADS));
            }
        });
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn oversubscribed_acquire_never_duplicates() {
        // More threads than slots: some acquires fail, but no two live
        // guards ever share an ID. We check by having each holder write
        // its thread token into a table slot and verify it is unchanged
        // before release.
        const SLOTS: usize = 4;
        const THREADS: usize = 12;
        let pool = IdPool::new(SLOTS);
        let owner: Vec<AtomicUsize> = (0..SLOTS).map(|_| AtomicUsize::new(usize::MAX)).collect();
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let pool = &pool;
                let owner = &owner;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for _ in 0..2000 {
                        if let Some(g) = pool.acquire() {
                            // ord(stats, sc): test scaffolding uses SeqCst for
                            // simplicity
                            owner[g.id()].store(t, Ordering::SeqCst);
                            std::hint::spin_loop();
                            assert_eq!(
                                // ord(stats, sc): test scaffolding uses SeqCst
                                // for simplicity
                                owner[g.id()].load(Ordering::SeqCst),
                                t,
                                "two guards alive for the same ID"
                            );
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn concurrent_reap_race_single_winner() {
        // Many threads race begin_reap on the same abandoned lease; the
        // protocol must elect exactly one reaper.
        const THREADS: usize = 8;
        for _ in 0..200 {
            let pool = IdPool::new(1);
            let g = pool.acquire_exact(0).unwrap();
            let generation = g.generation();
            std::mem::forget(g);
            let barrier = Barrier::new(THREADS);
            let wins = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..THREADS {
                    let pool = &pool;
                    let barrier = &barrier;
                    let wins = &wins;
                    s.spawn(move || {
                        barrier.wait();
                        if pool.begin_reap(0, generation) {
                            // ord(stats, sc): test scaffolding uses SeqCst for
                            // simplicity
                            wins.fetch_add(1, Ordering::SeqCst);
                            assert!(pool.finish_reap(0, generation));
                        }
                    });
                }
            });
            // ord(stats, sc): test scaffolding uses SeqCst for simplicity
            assert_eq!(wins.load(Ordering::SeqCst), 1, "exactly one reaper");
            assert_eq!(pool.acquire_exact(0).unwrap().generation(), generation + 1);
        }
    }
}
