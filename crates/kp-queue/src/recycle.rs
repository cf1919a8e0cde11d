//! Node recycling for the epoch variant: a per-handle FIFO of retired
//! nodes plus the queue's shared [`NodePool`].
//!
//! Sentinels unlinked by a handle's head swing go into its small FIFO
//! cache, tagged with the global epoch at retirement, and are reused
//! for the handle's future enqueues once the epoch has advanced two
//! steps — the *same* maturity rule the collector applies before
//! freeing (`crossbeam_epoch::global_epoch`), so a cached node is handed
//! out only when no pin that could still observe it remains active.
//! Soundness is therefore inherited from the shim's free rule, not
//! argued separately.
//!
//! A handle that only dequeues (a channel consumer) retires a node per
//! message and never enqueues, while one that only enqueues never
//! retires. So once a cache is half full its mature front *spills*, as
//! one chain linked through the nodes' `next` fields, into the shared
//! pool, and a handle with no mature node of its own steals the pool's
//! whole list before it allocates. Relinking a spilled node is safe
//! because maturity is permanent: the epoch only moves forward, so a
//! node no pin could reach at the spill can never be reached again
//! except through the pool, which only its exclusive owner walks.
//!
//! The cache and the pool are what make the steady-state paths
//! allocation-free: without them every head swing pays a
//! `defer_destroy` (epoch-bag traffic) and every enqueue a `Box::new`.
//! A retired node leaves recycling — a memory-pressure event — only
//! when the pool is at its cap or the cache filled up before its front
//! matured (a peer stalled inside a pin).

use std::collections::VecDeque;
use std::ptr;

use crossbeam_epoch::{self as epoch, Guard, Shared};

use crate::node::Node;
use crate::pool::{NodePool, PoolNode};

/// Upper bound on cached nodes per handle; beyond it (or with
/// `Config::reuse_nodes` off) retired nodes fall back to the epoch
/// collector.
const CACHE_CAP: usize = 256;

/// Cache length from which the mature front spills to the shared pool.
/// Half the cap, so the slack above it gives the front time to mature
/// before a full cache has to push nodes out to the collector.
const SPILL_AT: usize = CACHE_CAP / 2;

/// A FIFO of retired nodes, oldest (most mature) first, plus the spare
/// nodes last stolen from the shared pool.
pub(crate) struct RetireCache<T> {
    nodes: VecDeque<(usize, *mut Node<T>)>,
    /// Mature nodes stolen from the pool, linked through `next`.
    spare: *mut Node<T>,
    reuse: bool,
}

// SAFETY: every cached or spare node is unlinked from the queue and
// exclusively owned by this cache (the `push` and `NodePool::steal`
// contracts); moving the cache — inside its handle — to another thread
// moves that ownership with it.
unsafe impl<T: Send> Send for RetireCache<T> {}

impl<T> RetireCache<T> {
    pub(crate) fn new(reuse: bool) -> Self {
        RetireCache {
            nodes: VecDeque::with_capacity(if reuse { CACHE_CAP } else { 0 }),
            spare: ptr::null_mut(),
            reuse,
        }
    }

    /// Takes ownership of a node just unlinked by the L150 head CAS,
    /// first spilling the mature front to `pool` if the cache is at
    /// least half full.
    ///
    /// Returns `true` when the node **overflowed**: reuse is on but the
    /// cache is full and its front has not matured, so the node was
    /// pushed out to the epoch collector instead of cached. This is the
    /// memory-pressure backpressure signal (DESIGN.md §13) — callers
    /// count it in `Stats::cache_overflows`. A deferral with reuse
    /// disabled is the configured behaviour, not pressure, and returns
    /// `false`.
    ///
    /// # Safety
    ///
    /// Caller must own the retirement: the node is unlinked from the
    /// queue and will never be retired again (here, the winner of the
    /// L150 head CAS — exactly one thread per node).
    pub(crate) unsafe fn push(
        &mut self,
        node: *mut Node<T>,
        guard: &Guard,
        pool: &NodePool<Node<T>>,
    ) -> bool {
        if !self.reuse {
            // SAFETY: forwarded from the caller.
            unsafe { guard.defer_destroy(Shared::from(node as *const Node<T>)) };
            return false;
        }
        if self.nodes.len() >= SPILL_AT && self.ripen() {
            self.spill(pool);
        }
        if self.nodes.len() == CACHE_CAP {
            // SAFETY: forwarded from the caller.
            unsafe { guard.defer_destroy(Shared::from(node as *const Node<T>)) };
            return true;
        }
        self.nodes.push_back((epoch::global_epoch(), node));
        false
    }

    /// True when the front node is mature, after at most one collector
    /// nudge.
    ///
    /// Our own current pin never blocks maturity: pinning happened at
    /// some epoch `p >= tag`, and `tag + 2 <= global_epoch()` already
    /// proves the global epoch moved past every pin taken at `tag` or
    /// earlier — including one of our own taken before the retirement.
    fn ripen(&self) -> bool {
        let Some(&(tag, _)) = self.nodes.front() else {
            return false;
        };
        if tag + 2 <= epoch::global_epoch() {
            return true;
        }
        // One nudge. Every caller is pinned (inside an operation), and
        // a pinned caller moves the epoch at most one step: once the
        // epoch passes its pin, `advance` returns without scanning, so
        // a second nudge could not succeed. The front ripens over
        // successive calls as the caller's operations unpin and pin
        // again (a batch repins every 32 values for this reason).
        //
        // The nudge cannot help when a *peer* thread sits preempted
        // inside a pin: `advance` refuses to move past an active pin at
        // an older epoch, by design — that pin may still hold a
        // `Shared` into a cached node. On an oversubscribed host
        // (threads > cores) peers are routinely descheduled mid-pin for
        // a whole timeslice, the cache reports nothing mature, and
        // enqueues correctly fall back to the pool or fresh heap nodes
        // rather than block: reclamation is lock-free, not wait-free
        // (§3.4). That cost is bounded by `alloc_regression.rs`; the HP
        // variant pins only ≤2 nodes per stalled thread, which is why
        // its contended rows stay allocation-free.
        epoch::advance();
        tag + 2 <= epoch::global_epoch()
    }

    /// Moves every mature node at the front of the cache to `pool` as
    /// one chain (the pool frees it, counted, when full).
    fn spill(&mut self, pool: &NodePool<Node<T>>) {
        let now = epoch::global_epoch();
        let (mut first, mut last, mut n): (*mut Node<T>, *mut Node<T>, usize) =
            (ptr::null_mut(), ptr::null_mut(), 0);
        while let Some(&(tag, node)) = self.nodes.front() {
            if tag + 2 > now {
                break;
            }
            self.nodes.pop_front();
            // SAFETY: mature, so no pin can reach the node and this
            // cache owns it exclusively (see the module docs).
            unsafe { (*node).set_free_next(first) };
            if last.is_null() {
                last = node;
            }
            first = node;
            n += 1;
        }
        if n > 0 {
            // SAFETY: the chain's nodes are mature and ours alone.
            unsafe { pool.push_chain(first, last, n) };
        }
    }

    /// A node no pinned thread can still observe: this cache's mature
    /// front, else a spare stolen from `pool`.
    pub(crate) fn pop(&mut self, pool: &NodePool<Node<T>>) -> Option<*mut Node<T>> {
        if self.ripen() {
            return self.nodes.pop_front().map(|(_, node)| node);
        }
        if self.spare.is_null() {
            self.spare = pool.steal();
        }
        let node = self.spare;
        if node.is_null() {
            return None;
        }
        // SAFETY: spares form a chain this cache stole and owns.
        self.spare = unsafe { (*node).free_next() };
        Some(node)
    }

    /// Handle exit: returns the mature front and the spares to `pool`
    /// and hands the rest to the collector.
    pub(crate) fn drain(&mut self, guard: &Guard, pool: &NodePool<Node<T>>) {
        self.spill(pool);
        for (_, node) in self.nodes.drain(..) {
            // SAFETY: cached nodes are unlinked and uniquely owned (the
            // `push` contract), and we are giving up reuse of them.
            unsafe { guard.defer_destroy(Shared::from(node as *const Node<T>)) };
        }
        let first = std::mem::replace(&mut self.spare, ptr::null_mut());
        if first.is_null() {
            return;
        }
        let (mut last, mut n) = (first, 1);
        loop {
            // SAFETY: the spare chain is ours alone.
            let next = unsafe { (*last).free_next() };
            if next.is_null() {
                break;
            }
            last = next;
            n += 1;
        }
        // SAFETY: as above; spares are mature.
        unsafe { pool.push_chain(first, last, n) };
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh(v: u32) -> *mut Node<u32> {
        Box::into_raw(Box::new(Node::new(Some(v), 0)))
    }

    #[test]
    fn nodes_mature_after_two_epoch_advances() {
        let pool = NodePool::new(true);
        let mut cache: RetireCache<u32> = RetireCache::new(true);
        let node = fresh(1);
        let guard = epoch::pin();
        // SAFETY: `node` is freshly leaked and unreachable from any queue.
        unsafe { cache.push(node, &guard, &pool) };
        drop(guard);
        // `pop` itself nudges the collector; with no other pins it
        // succeeds after at most two calls (one advance each).
        let mut got = None;
        for _ in 0..3 {
            if let Some(n) = cache.pop(&pool) {
                got = Some(n);
                break;
            }
        }
        let n = got.expect("node must ripen once no pin remains");
        assert_eq!(n, node);
        assert_eq!(cache.len(), 0);
        // SAFETY: popped from the cache; the test now owns it exclusively.
        unsafe { drop(Box::from_raw(n)) };
    }

    #[test]
    fn half_full_cache_spills_its_mature_front_to_the_pool() {
        let pool = NodePool::new(true);
        let mut consumer: RetireCache<u32> = RetireCache::new(true);
        let mut producer: RetireCache<u32> = RetireCache::new(true);
        for v in 0..SPILL_AT as u32 {
            let guard = epoch::pin();
            // SAFETY: freshly leaked, unreachable from any queue.
            assert!(!unsafe { consumer.push(fresh(v), &guard, &pool) });
        }
        // Further retirements nudge the epoch; once the front matures
        // the whole mature prefix moves to the pool as one chain.
        let mut pushes = 0;
        while consumer.len() >= SPILL_AT {
            pushes += 1;
            assert!(pushes <= SPILL_AT, "the front never matured");
            let guard = epoch::pin();
            // SAFETY: as above.
            unsafe { consumer.push(fresh(0), &guard, &pool) };
        }
        // A handle with nothing retired of its own reuses the spill.
        let n = producer.pop(&pool).expect("the spill reached the pool");
        assert_eq!(producer.len(), 0);
        assert_eq!(pool.overflows(), 0, "nothing left recycling");
        // SAFETY: popped, so the test owns it exclusively.
        unsafe { drop(Box::from_raw(n)) };
        let guard = epoch::pin();
        consumer.drain(&guard, &pool);
        producer.drain(&guard, &pool);
    }

    #[test]
    fn reuse_off_defers_to_the_collector() {
        let pool = NodePool::new(false);
        let mut cache: RetireCache<u32> = RetireCache::new(false);
        let guard = epoch::pin();
        // SAFETY: as in the test above; the collector takes ownership.
        unsafe { cache.push(fresh(2), &guard, &pool) };
        assert_eq!(cache.len(), 0, "nothing cached with reuse disabled");
        assert!(cache.pop(&pool).is_none());
        drop(guard);
    }
}
