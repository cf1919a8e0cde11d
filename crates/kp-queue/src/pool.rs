//! The shared node pool both engines recycle through: a capped,
//! steal-all freelist (one per queue).
//!
//! Nodes enter the pool only when nobody else can reach them — in the
//! hazard-pointer engine once the two-token gate closed (`hp::types`),
//! in the epoch engine once a retired node matured (`crate::recycle`) —
//! and leave it in bulk: a handle that needs nodes [`steal`]s the whole
//! list at once and pops from it privately.
//!
//! The steal-all shape is what makes the freelist sound without tags:
//! a push links a chain the pusher exclusively owns (write the last
//! node's free link, then CAS the head — the classic ABA-immune Treiber
//! *push*), and [`steal`] detaches the whole list with one swap and
//! walks it privately. No operation ever dereferences a node still
//! reachable from the shared head, so the Treiber *pop* ABA and
//! use-after-free hazards never arise.
//!
//! Every operation is wait-free: a push gives up after
//! [`PUSH_ATTEMPTS`] lost CASes and frees its chain instead, and a steal
//! is one swap.
//!
//! [`steal`]: NodePool::steal

use std::ptr;

use kp_sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

/// Pool size bound, in nodes: a push that would take the pool past it
/// frees its nodes instead. Twice a typical epoch spill (a retire cache
/// spills once half of its 256 slots are full, `crate::recycle`), so a
/// consumer's next spill still fits when the producer has not stolen
/// the last one yet.
pub(crate) const POOL_CAP: usize = 256;

/// Push retries before giving up and freeing the chain instead. The
/// bound keeps every push wait-free (it runs inside queue operations);
/// losing the race this many times just means other threads are filling
/// the pool, so dropping our nodes costs little.
const PUSH_ATTEMPTS: usize = 8;

/// A heap node the pool can chain through one of its own link fields.
///
/// # Safety
///
/// Implementors must be allocated with `Box`, and the link the two
/// methods access must be touched by nobody but the node's exclusive
/// owner while the node is in the pool or in a stolen chain.
pub(crate) unsafe trait PoolNode: Sized {
    /// The next node of the chain this node is on.
    fn free_next(&self) -> *mut Self;
    /// Links this node to `next`.
    fn set_free_next(&self, next: *mut Self);
}

/// The shared node freelist.
pub(crate) struct NodePool<N: PoolNode> {
    /// Treiber head, linked through [`PoolNode::free_next`].
    head: AtomicPtr<N>,
    /// Approximate population (maintained racily; only bounds growth).
    len: AtomicUsize,
    /// Nodes freed instead of pooled while reuse was *on* — the pool
    /// was at [`POOL_CAP`] or the push-contention bound tripped. Part of
    /// the memory-pressure signal (DESIGN.md §13), folded into
    /// `StatsSnapshot::cache_overflows`. A shared RMW because pushes run
    /// from hazard-scan reclaim callbacks that belong to no tid; it only
    /// moves on the overflow path.
    overflows: AtomicUsize,
    reuse: bool,
}

impl<N: PoolNode> NodePool<N> {
    pub(crate) fn new(reuse: bool) -> Self {
        NodePool {
            head: AtomicPtr::new(ptr::null_mut()),
            len: AtomicUsize::new(0),
            overflows: AtomicUsize::new(0),
            reuse,
        }
    }

    /// Nodes freed past the cap so far (see the `overflows` field).
    pub(crate) fn overflows(&self) -> u64 {
        self.overflows.load(Ordering::Relaxed) as u64
    }

    /// Takes ownership of one node; see [`push_chain`](Self::push_chain).
    ///
    /// # Safety
    ///
    /// As for `push_chain`, with `node` a chain of one.
    pub(crate) unsafe fn release(&self, node: *mut N) {
        // SAFETY: forwarded from the caller.
        unsafe { self.push_chain(node, node, 1) }
    }

    /// Takes ownership of the `n` nodes linked from `first` to `last`
    /// through their free links, pooling them or — at the cap, past the
    /// push-contention bound, or with reuse disabled — freeing them.
    ///
    /// # Safety
    ///
    /// The caller must own every node of the chain exclusively — no
    /// other thread can reach any of them any more — and give each up
    /// here once per lifetime generation.
    pub(crate) unsafe fn push_chain(&self, first: *mut N, last: *mut N, n: usize) {
        if self.reuse && self.len.load(Ordering::Relaxed) + n <= POOL_CAP {
            let mut head = self.head.load(Ordering::Relaxed);
            for _ in 0..PUSH_ATTEMPTS {
                // SAFETY: exclusive ownership (caller contract); the
                // Release CAS below orders this write before the chain
                // becomes reachable from the shared head.
                unsafe { (*last).set_free_next(head) };
                match self.head.compare_exchange_weak(
                    head,
                    first,
                    Ordering::Release,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        self.len.fetch_add(n, Ordering::Relaxed);
                        return;
                    }
                    Err(h) => head = h,
                }
            }
        }
        // Overflow, contention bound hit, or reuse disabled: free. Safe
        // precisely because no stealer ever dereferences shared nodes —
        // the chain was never published, so we still own it. With reuse
        // on this is the backpressure path — count it.
        if self.reuse {
            self.overflows.fetch_add(n, Ordering::Relaxed);
        }
        // SAFETY: exclusive ownership; terminate the chain so the walk
        // frees exactly its `n` nodes.
        unsafe {
            (*last).set_free_next(ptr::null_mut());
            free_chain(first);
        }
    }

    /// Detaches the entire freelist and returns its head (null when
    /// empty); the caller owns every node on it, linked through
    /// [`PoolNode::free_next`] and ending in null.
    pub(crate) fn steal(&self) -> *mut N {
        if !self.reuse {
            return ptr::null_mut();
        }
        // A plain load first, so probing an empty pool does not take its
        // line exclusive. Seeing it empty also repairs a `len` that a
        // push racing the last steal left overcounted (its `fetch_add`
        // landing after the steal's reset): without that, a stale count
        // near the cap would refuse every push and starve the pool.
        if self.head.load(Ordering::Relaxed).is_null() {
            if self.len.load(Ordering::Relaxed) != 0 {
                self.len.store(0, Ordering::Relaxed);
            }
            return ptr::null_mut();
        }
        // Acquire pairs with push_chain's Release CAS (and, through the
        // release sequence on `head`, with every earlier push): the
        // private walk that follows sees every link written before
        // publish.
        let head = self.head.swap(ptr::null_mut(), Ordering::Acquire);
        if !head.is_null() {
            // Racy vs concurrent pushes — at worst the pool briefly
            // miscounts toward POOL_CAP. Growth stays bounded.
            self.len.store(0, Ordering::Relaxed);
        }
        head
    }
}

/// Frees every node of a null-terminated chain.
///
/// # Safety
///
/// The caller owns every node of the chain exclusively.
unsafe fn free_chain<N: PoolNode>(mut cur: *mut N) {
    while !cur.is_null() {
        // SAFETY: caller contract; `PoolNode` nodes are `Box`es.
        let node = unsafe { Box::from_raw(cur) };
        cur = node.free_next();
    }
}

impl<N: PoolNode> Drop for NodePool<N> {
    fn drop(&mut self) {
        // SAFETY: exclusive access in Drop; freelist nodes are owned by
        // the pool and appear nowhere else.
        unsafe { free_chain(*self.head.get_mut()) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hp::types::NodeHp;

    fn collect_chain(mut cur: *mut NodeHp<u32>) -> Vec<*mut NodeHp<u32>> {
        let mut got = Vec::new();
        while !cur.is_null() {
            got.push(cur);
            // SAFETY: stolen nodes stay live until the test frees them.
            cur = unsafe { (*cur).free_next() };
        }
        got
    }

    #[test]
    fn release_steal_roundtrip() {
        let pool: NodePool<NodeHp<u32>> = NodePool::new(true);
        let a = NodeHp::boxed(None, 0);
        let b = NodeHp::boxed(None, 1);
        // SAFETY: `a` and `b` are freshly leaked, uniquely owned nodes.
        unsafe {
            pool.release(a);
            pool.release(b);
        }
        let got = collect_chain(pool.steal());
        assert_eq!(got.len(), 2, "both nodes stolen");
        assert!(got.contains(&a) && got.contains(&b));
        assert!(pool.steal().is_null(), "list is empty after steal");
        for n in got {
            // SAFETY: each node left the freelist exactly once; freed exactly once.
            unsafe { drop(Box::from_raw(n)) };
        }
    }

    #[test]
    fn chains_push_whole_and_respect_the_cap() {
        let pool: NodePool<NodeHp<u32>> = NodePool::new(true);
        let make = |n: usize| {
            let nodes: Vec<_> = (0..n).map(|i| NodeHp::boxed(None, i)).collect();
            for w in nodes.windows(2) {
                // SAFETY: the test owns every node.
                unsafe { (*w[0]).set_free_next(w[1]) };
            }
            (nodes[0], nodes[n - 1])
        };
        let (first, last) = make(POOL_CAP);
        // SAFETY: a freshly built, uniquely owned chain.
        unsafe { pool.push_chain(first, last, POOL_CAP) };
        assert_eq!(pool.overflows(), 0);
        let (first, last) = make(3);
        // SAFETY: as above; the pool is full, so these are freed.
        unsafe { pool.push_chain(first, last, 3) };
        assert_eq!(pool.overflows(), 3, "a push past the cap frees and counts");
        let got = collect_chain(pool.steal());
        assert_eq!(got.len(), POOL_CAP);
        // SAFETY: stolen, so the test owns the chain again.
        unsafe { free_chain(got[0]) };
    }

    #[test]
    fn empty_steal_repairs_an_overcounted_len() {
        let pool: NodePool<NodeHp<u32>> = NodePool::new(true);
        pool.len.store(POOL_CAP, Ordering::Relaxed);
        assert!(pool.steal().is_null());
        let a = NodeHp::boxed(None, 0);
        // SAFETY: freshly leaked, uniquely owned.
        unsafe { pool.release(a) };
        assert_eq!(pool.overflows(), 0, "the repaired count admits the push");
        assert_eq!(pool.steal(), a);
        // SAFETY: stolen back; freed exactly once.
        unsafe { drop(Box::from_raw(a)) };
    }

    #[test]
    fn reuse_disabled_frees_immediately() {
        let pool: NodePool<NodeHp<u32>> = NodePool::new(false);
        let a = NodeHp::boxed(None, 0);
        // SAFETY: `a` is freshly leaked; with reuse off, release frees it.
        unsafe { pool.release(a) };
        assert!(pool.steal().is_null());
        assert_eq!(pool.overflows(), 0, "a disabled pool is not pressure");
    }
}
