//! Operation counters: one block of single-writer cells per virtual
//! thread ID.
//!
//! The paper's §4 argues that the wait-free queue's cost comes from
//! state-array bookkeeping and helping; these counters let the harness
//! and the test suite observe that machinery directly (e.g. "under
//! contention, a nonzero fraction of operations is completed by
//! helpers"), and they feed the overload layer's depth, drain and
//! memory-pressure gauges.
//!
//! Each queue keeps one cache-padded [`Stats`] block per virtual tid
//! ([`StatsTable`]). Only the handle holding that tid writes the block —
//! work it does on a peer's behalf (a helped append, a reap) is counted
//! in the helper's own block — so a bump is a relaxed load plus a
//! relaxed store: no read-modify-write, no lock prefix, and no cache
//! line shared with another writer. Readers (`stats()`, `depth_hint`,
//! `drained_hint`, `pressure_hint` and a handle's `fast_path_stats()`)
//! sum relaxed loads over the blocks: stale by the operations in flight
//! under load, exact at quiescence. A block outlives its handle; the
//! tid's next holder keeps adding to the same cells, so handle churn
//! loses no counts.
//!
//! The single writer is guaranteed by the lease contract (DESIGN.md
//! §13). A handle that is reaped while still running violates it: it
//! and the tid's successor then interleave load/store pairs on one
//! block and can lose each other's increments. Every counter is
//! advisory — admission control treats the gauges as hints, never as a
//! bound — so such a violation costs accuracy, not safety.

use std::ops::Index;

use kp_sync::atomic::{AtomicU64, Ordering};
use kp_sync::CachePadded;
use queue_traits::FastPathStats;

/// One statistic cell, written only by its block's owner.
#[derive(Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    /// Adds one. Owner-only (see the module docs), hence no RMW.
    #[inline]
    pub(crate) fn bump(&self) {
        self.0
            // ord(stats): single-writer counter bump: only the handle holding
            // the block's tid writes it, so a Relaxed load + store replaces the
            // RMW (stats.rs module docs); no synchronization intent
            .store(self.0.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        // ord(stats): counter read for snapshots and the advisory
        // depth/drain/pressure gauges; Relaxed per-cell reads summed across
        // tids -- exact at quiescence, stale by in-flight ops under load, no
        // cross-counter consistency promised
        self.0.load(Ordering::Relaxed)
    }
}

/// The counters of one virtual tid.
#[derive(Default)]
pub(crate) struct Stats {
    /// Completed enqueue operations (counted by the invoking thread).
    pub(crate) enqueues: Counter,
    /// Completed dequeue operations, including empty ones.
    pub(crate) dequeues: Counter,
    /// Dequeue operations that linearized on an empty queue.
    pub(crate) empty_dequeues: Counter,
    /// Every successful step-1 append (Figure 4 line 74) — Lemma 1 says
    /// exactly one per enqueue operation.
    pub(crate) appends_total: Counter,
    /// Every successful sentinel lock (Figure 6 line 135) — Lemma 2 says
    /// exactly one per successful dequeue operation.
    pub(crate) locks_total: Counter,
    /// Successful step-1 appends (Figure 4 line 74) performed by a thread
    /// other than the operation's owner.
    pub(crate) helped_appends: Counter,
    /// Successful sentinel locks (Figure 6 line 135) performed by a
    /// thread other than the operation's owner.
    pub(crate) helped_locks: Counter,
    /// `maxPhase()` scans performed (only under `PhasePolicy::MaxScan`).
    pub(crate) phase_scans: Counter,
    /// Iterations of the `help()` scan that actually called into
    /// `help_enq`/`help_deq` for a peer.
    pub(crate) help_calls: Counter,
    /// Nodes taken from the heap because no recycled node was available
    /// (see `RetireCache` / `NodePool`). Zero in steady state.
    pub(crate) node_allocs: Counter,
    /// Nodes served from a recycle cache or the shared pool instead of
    /// the heap.
    pub(crate) node_reuses: Counter,
    /// Operations completed entirely on the descriptor-free fast path
    /// (enqueues whose append CAS won, dequeues whose `deqTid` lock won
    /// or that linearized empty, all within the CAS-failure budget).
    pub(crate) fast_completions: Counter,
    /// Fast-path attempts that exhausted `max_fast_failures` CAS-loop
    /// iterations and fell back to the wait-free slow path.
    pub(crate) fast_exhaustions: Counter,
    /// Fast-path attempts demoted to the slow path because the periodic
    /// starvation peek observed a pending peer descriptor.
    pub(crate) fast_starvation_demotions: Counter,
    /// Operations that ran the slow path (demoted ones included).
    pub(crate) slow_ops: Counter,
    /// Abandoned-handle reaps completed (lease revoked, slot retired,
    /// participation quarantined). See DESIGN.md §13.
    pub(crate) reaps: Counter,
    /// Reaps whose victim had a pending descriptor that the reaper
    /// adopted and completed through the helping machinery.
    pub(crate) reap_adoptions: Counter,
    /// Reaps taken over from a reaper that itself went silent mid-reap.
    pub(crate) reap_takeovers: Counter,
    /// Epoch participants / hazard records force-quarantined by reaps.
    pub(crate) quarantines: Counter,
    /// Memory-pressure backpressure: retired nodes that left recycling
    /// for the epoch collector because the `RetireCache` was full and
    /// its front had not matured. Nodes the shared `NodePool` refuses
    /// are counted pool-side (`NodePool::overflows`).
    pub(crate) cache_overflows: Counter,
}

impl Stats {
    /// Adds this block's counters into `s`.
    fn add_to(&self, s: &mut StatsSnapshot) {
        s.enqueues += self.enqueues.get();
        s.dequeues += self.dequeues.get();
        s.empty_dequeues += self.empty_dequeues.get();
        s.appends_total += self.appends_total.get();
        s.locks_total += self.locks_total.get();
        s.helped_appends += self.helped_appends.get();
        s.helped_locks += self.helped_locks.get();
        s.phase_scans += self.phase_scans.get();
        s.help_calls += self.help_calls.get();
        s.node_allocs += self.node_allocs.get();
        s.node_reuses += self.node_reuses.get();
        s.fast_completions += self.fast_completions.get();
        s.fast_exhaustions += self.fast_exhaustions.get();
        s.fast_starvation_demotions += self.fast_starvation_demotions.get();
        s.slow_ops += self.slow_ops.get();
        s.reaps += self.reaps.get();
        s.reap_adoptions += self.reap_adoptions.get();
        s.reap_takeovers += self.reap_takeovers.get();
        s.quarantines += self.quarantines.get();
        s.cache_overflows += self.cache_overflows.get();
    }

    /// The fast/slow split accumulated in this block since `base` (a
    /// reading taken when the current handle registered).
    pub(crate) fn fast_path_since(&self, base: &FastPathStats) -> FastPathStats {
        FastPathStats {
            fast_completions: self.fast_completions.get() - base.fast_completions,
            fast_exhaustions: self.fast_exhaustions.get() - base.fast_exhaustions,
            fast_starvation_demotions: self.fast_starvation_demotions.get()
                - base.fast_starvation_demotions,
            slow_ops: self.slow_ops.get() - base.slow_ops,
        }
    }
}

/// A queue's counter blocks, one per virtual tid.
pub(crate) struct StatsTable(Box<[CachePadded<Stats>]>);

impl StatsTable {
    pub(crate) fn new(max_threads: usize) -> Self {
        StatsTable((0..max_threads).map(|_| CachePadded::default()).collect())
    }

    fn sum(&self, cell: impl Fn(&Stats) -> &Counter) -> u64 {
        self.0.iter().map(|block| cell(block).get()).sum()
    }

    /// Every block summed.
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let mut s = StatsSnapshot::default();
        for block in self.0.iter() {
            block.add_to(&mut s);
        }
        s
    }

    /// Monotonic count of values removed so far (empty dequeues carry
    /// no value, so they are subtracted out). The overload layer's
    /// drain heartbeat.
    pub(crate) fn drained(&self) -> u64 {
        let dequeues = self.sum(|b| &b.dequeues);
        dequeues.saturating_sub(self.sum(|b| &b.empty_dequeues))
    }

    /// Advisory resident-value gauge: completed enqueues minus values
    /// drained. Sums the dequeue side first so a concurrent completion
    /// between the sums errs toward overcounting, never negative —
    /// exact at quiescence, stale by at most the number of in-flight
    /// operations under load.
    pub(crate) fn depth(&self) -> usize {
        let drained = self.drained();
        self.sum(|b| &b.enqueues).saturating_sub(drained) as usize
    }

    /// Retire-cache overflows across every block.
    pub(crate) fn overflows(&self) -> u64 {
        self.sum(|b| &b.cache_overflows)
    }
}

impl Index<usize> for StatsTable {
    type Output = Stats;

    fn index(&self, tid: usize) -> &Stats {
        &self.0[tid]
    }
}

/// A point-in-time copy of a queue's helping statistics, summed over
/// every virtual tid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Completed enqueue operations.
    pub enqueues: u64,
    /// Completed dequeue operations (including those that found the
    /// queue empty).
    pub dequeues: u64,
    /// Dequeue operations that linearized on an empty queue.
    pub empty_dequeues: u64,
    /// Total successful step-1 appends (paper L74). Lemma 1's
    /// exactly-once property means this equals `enqueues` at
    /// quiescence — asserted by the test suite.
    pub appends_total: u64,
    /// Total successful sentinel locks (paper L135). Lemma 2's
    /// exactly-once property means this equals
    /// `dequeues - empty_dequeues` at quiescence.
    pub locks_total: u64,
    /// Enqueue linearization steps executed by a helper rather than the
    /// operation's owner.
    pub helped_appends: u64,
    /// Dequeue linearization steps executed by a helper rather than the
    /// operation's owner.
    pub helped_locks: u64,
    /// `maxPhase()` array scans performed.
    pub phase_scans: u64,
    /// Times a thread entered `help_enq`/`help_deq` on behalf of a peer.
    pub help_calls: u64,
    /// Nodes freshly heap-allocated because no recycled node was
    /// available. Zero per op in steady state with `reuse_nodes` on.
    pub node_allocs: u64,
    /// Nodes served from a recycle cache or the shared pool instead of
    /// the heap.
    pub node_reuses: u64,
    /// Operations completed entirely on the descriptor-free fast path.
    pub fast_completions: u64,
    /// Fast-path attempts that exhausted the CAS-failure budget and fell
    /// back to the slow path.
    pub fast_exhaustions: u64,
    /// Fast-path attempts demoted to the slow path by the starvation
    /// peek.
    pub fast_starvation_demotions: u64,
    /// Operations that ran the slow path (demoted ones included).
    pub slow_ops: u64,
    /// Abandoned-handle reaps completed (zero unless
    /// `Config::reap_patience` is non-zero and a handle went silent).
    pub reaps: u64,
    /// Reaps that adopted and completed a victim's pending operation.
    pub reap_adoptions: u64,
    /// Reaps taken over from a reaper that itself went silent mid-reap.
    pub reap_takeovers: u64,
    /// Epoch participants / hazard records force-quarantined by reaps.
    pub quarantines: u64,
    /// Retired nodes that left recycling for the allocator or the epoch
    /// collector: the shared pool was at its cap, or a full retire
    /// cache's front had not matured (memory-pressure backpressure; see
    /// DESIGN.md §10 and §13).
    pub cache_overflows: u64,
}

impl StatsSnapshot {
    /// Total completed operations.
    pub fn ops(&self) -> u64 {
        self.enqueues + self.dequeues
    }

    /// Fraction of fast-path *attempts* that fell back to the slow path
    /// (exhaustion or starvation demotion); 0.0 when the fast path never
    /// ran. An attempt is a completion or a fallback — slow-only
    /// operations (fast path disabled) are not attempts.
    pub fn fallback_rate(&self) -> f64 {
        let fallbacks = self.fast_exhaustions + self.fast_starvation_demotions;
        let attempts = self.fast_completions + fallbacks;
        if attempts == 0 {
            return 0.0;
        }
        fallbacks as f64 / attempts as f64
    }

    /// Fraction of operations whose linearization step was executed by a
    /// helper (0.0 when no operations ran).
    pub fn helped_fraction(&self) -> f64 {
        let ops = self.ops();
        if ops == 0 {
            return 0.0;
        }
        (self.helped_appends + self.helped_locks) as f64 / ops as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_sums_every_tid_block() {
        let t = StatsTable::new(3);
        t[0].enqueues.bump();
        t[2].enqueues.bump();
        t[1].helped_locks.bump();
        t[1].dequeues.bump();
        let snap = t.snapshot();
        assert_eq!(snap.enqueues, 2);
        assert_eq!(snap.helped_locks, 1);
        assert_eq!(snap.ops(), 3);
        assert!((snap.helped_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.depth(), 1);
        assert_eq!(t.drained(), 1);
    }

    #[test]
    fn fast_path_since_subtracts_the_registration_reading() {
        let t = StatsTable::new(1);
        t[0].fast_completions.bump();
        t[0].slow_ops.bump();
        let base = t[0].fast_path_since(&FastPathStats::default());
        t[0].fast_completions.bump();
        let fp = t[0].fast_path_since(&base);
        assert_eq!(fp.fast_completions, 1);
        assert_eq!(fp.slow_ops, 0);
    }

    #[test]
    fn helped_fraction_empty() {
        assert_eq!(StatsSnapshot::default().helped_fraction(), 0.0);
    }

    #[test]
    fn fallback_rate_counts_both_demotion_kinds() {
        assert_eq!(StatsSnapshot::default().fallback_rate(), 0.0);
        let snap = StatsSnapshot {
            fast_completions: 6,
            fast_exhaustions: 1,
            fast_starvation_demotions: 1,
            ..StatsSnapshot::default()
        };
        assert!((snap.fallback_rate() - 0.25).abs() < 1e-12);
    }
}
